#include "energy/meter.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ones::energy {

EnergyMeter::EnergyMeter(const PowerModel& model, const cluster::Topology& topology,
                         ProfileLookup profile_of)
    : model_(&model),
      topology_(&topology),
      profile_of_(std::move(profile_of)),
      watts_by_node_(static_cast<std::size_t>(topology.num_nodes()), 0.0),
      gpu_watts_(static_cast<std::size_t>(topology.total_gpus()), 0.0),
      gpu_front_(static_cast<std::size_t>(topology.total_gpus()), -1),
      node_touched_(static_cast<std::size_t>(topology.num_nodes()), 0),
      joules_by_node_(static_cast<std::size_t>(topology.num_nodes()), 0.0) {
  ONES_EXPECT(profile_of_ != nullptr);
  double overhead = model_->node_base_watts() * static_cast<double>(topology_->num_nodes());
  overhead_by_idle_.reserve(static_cast<std::size_t>(topology_->total_gpus()) + 1);
  overhead_by_idle_.push_back(overhead);
  for (int k = 0; k < topology_->total_gpus(); ++k) {
    overhead += model_->idle_gpu_watts();
    overhead_by_idle_.push_back(overhead);
  }
  touch_all_nodes();  // the all-idle cluster: every node summed once
  rescan(cluster::Assignment(topology_->total_gpus()));
}

void EnergyMeter::set_metrics(telemetry::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry_ != nullptr) {
    watts_series_ = registry_->timeline().series("cluster_watts");
    publish(last_t_);
  }
}

void EnergyMeter::accumulate(double now) {
  ONES_EXPECT_MSG(now >= last_t_, "sim clock moved backwards");
  const double dt = now - last_t_;
  if (dt > 0.0) {
    cluster_joules_ += cluster_watts_ * dt;
    overhead_joules_ += overhead_watts_ * dt;
    for (Draw& draw : draws_) {
      if (draw.joules == nullptr) draw.joules = &joules_by_job_[draw.job];
      *draw.joules += draw.watts * dt;
    }
    for (std::size_t n = 0; n < watts_by_node_.size(); ++n) {
      joules_by_node_[n] += watts_by_node_[n] * dt;
    }
    if (registry_ != nullptr) {
      registry_->counter("energy_cluster_joules_total").add(cluster_watts_ * dt);
      registry_->counter("energy_overhead_joules_total").add(overhead_watts_ * dt);
    }
  }
  last_t_ = now;
}

void EnergyMeter::touch(GpuId gpu) {
  const NodeId node = topology_->node_of(gpu);
  char& touched = node_touched_[static_cast<std::size_t>(node)];
  if (touched == 0) {
    touched = 1;
    touched_nodes_.push_back(node);
  }
}

void EnergyMeter::touch_all_nodes() {
  for (GpuId g = 0; g < topology_->total_gpus(); g += topology_->gpus_per_node()) touch(g);
}

void EnergyMeter::resum_node(const cluster::Assignment& next, NodeId node) {
  const GpuId first = node * topology_->gpus_per_node();
  node_workers_.clear();
  int idle = 0;
  for (GpuId g = first; g < first + topology_->gpus_per_node(); ++g) {
    const cluster::Slot& s = next.slot(g);
    if (s.occupied()) {
      node_workers_.emplace_back(gpu_front_[static_cast<std::size_t>(g)], g);
    } else if (s.healthy()) {
      ++idle;
    }
  }
  if (node_workers_.size() > 1) std::sort(node_workers_.begin(), node_workers_.end());
  // Per-node base draw is unconditional: a node is powered whether or not
  // any of its GPUs host a worker. Every idle GPU adds the same draw, so
  // adding it `idle` times is the ascending idle-GPU sum.
  double watts = model_->node_base_watts();
  for (const auto& [front, g] : node_workers_) watts += gpu_watts_[static_cast<std::size_t>(g)];
  for (int i = 0; i < idle; ++i) watts += model_->idle_gpu_watts();
  watts_by_node_[static_cast<std::size_t>(node)] = watts;
}

void EnergyMeter::rescan(const cluster::Assignment& next) {
  next_draws_.clear();
  next_workers_.clear();
  const auto touch_workers = [&](const Draw& draw) {  // its GPUs in draws_
    for (int i = draw.begin; i < draw.begin + draw.count; ++i) {
      touch(workers_[static_cast<std::size_t>(i)].gpu);
    }
  };
  // Both sides ascend by JobId: one merge walk pairs each job's cached draw
  // with its placement in `next`.
  std::size_t d = 0;
  for (int k = 0; k < next.placed_count(); ++k) {
    const cluster::PlacedJob placed = next.placed(k);
    for (; d < draws_.size() && draws_[d].job < placed.job; ++d) {
      touch_workers(draws_[d]);  // stopped
    }
    const Draw* old = d < draws_.size() && draws_[d].job == placed.job ? &draws_[d++] : nullptr;
    Draw draw{.job = placed.job,
              .begin = static_cast<int>(next_workers_.size()),
              .count = static_cast<int>(placed.gpus.size()),
              .watts = 0.0,
              .joules = old != nullptr ? old->joules : nullptr};
    const auto unchanged = [&] {
      if (old->count != draw.count) return false;
      for (std::size_t i = 0; i < placed.gpus.size(); ++i) {
        const Worker& w = workers_[static_cast<std::size_t>(old->begin) + i];
        if (w.gpu != placed.gpus[i] || w.local_batch != next.slot(w.gpu).local_batch) {
          return false;
        }
      }
      return true;
    };
    // Same GPUs and batches give the same watts: only a moved job is priced.
    if (old != nullptr && unchanged()) {
      const auto first = workers_.begin() + old->begin;
      next_workers_.insert(next_workers_.end(), first, first + old->count);
      draw.watts = old->watts;
    } else {
      if (old != nullptr) touch_workers(*old);
      const model::TaskProfile* profile = profile_of_(placed.job);
      ONES_EXPECT_MSG(profile != nullptr, "no task profile for a placed job");
      gpus_scratch_.assign(placed.gpus.begin(), placed.gpus.end());
      batches_scratch_.clear();
      for (const GpuId g : placed.gpus) batches_scratch_.push_back(next.slot(g).local_batch);
      const cluster::LinkProfile link = topology_->link_profile(gpus_scratch_);
      for (std::size_t i = 0; i < placed.gpus.size(); ++i) {
        const GpuId g = placed.gpus[i];
        const double w = model_->worker_watts(*profile, batches_scratch_, i, link);
        next_workers_.push_back({g, batches_scratch_[i]});
        draw.watts += w;
        gpu_watts_[static_cast<std::size_t>(g)] = w;
        gpu_front_[static_cast<std::size_t>(g)] = placed.gpus.front();
        touch(g);
      }
    }
    next_draws_.push_back(draw);
  }
  for (; d < draws_.size(); ++d) touch_workers(draws_[d]);  // stopped
  draws_.swap(next_draws_);
  workers_.swap(next_workers_);

  // A GPU that went down or healed leaves or joins its node's idle draw:
  // when the down set changed, re-sum every node either set touches.
  const std::vector<GpuId>& down = next.unhealthy_gpus();
  if (down != down_) {
    for (const GpuId g : down_) touch(g);
    for (const GpuId g : down) touch(g);
    down_ = down;
  }

  for (const NodeId n : touched_nodes_) {
    resum_node(next, n);
    node_touched_[static_cast<std::size_t>(n)] = 0;
  }
  touched_nodes_.clear();
  overhead_watts_ = overhead_by_idle_[static_cast<std::size_t>(next.idle_count())];
  // Cluster watts in JobId order.
  cluster_watts_ = overhead_watts_;
  for (const Draw& draw : draws_) cluster_watts_ += draw.watts;
}

void EnergyMeter::audit(const cluster::Assignment& current) const {
  EnergyMeter fresh(*model_, *topology_, profile_of_);
  fresh.touch_all_nodes();  // nothing cached: every job priced, every node summed
  fresh.rescan(current);
  ONES_EXPECT_MSG(fresh.draws_.size() == draws_.size(),
                  "energy meter draws diverged: wrong set of placed jobs");
  for (std::size_t i = 0; i < draws_.size(); ++i) {
    const Draw& have = draws_[i];
    const Draw& want = fresh.draws_[i];
    ONES_EXPECT_MSG(have.job == want.job && have.count == want.count && have.watts == want.watts,
                    "energy meter draws diverged: stale job watts");
    for (int w = 0; w < have.count; ++w) {
      const Worker& mine = workers_[static_cast<std::size_t>(have.begin + w)];
      const auto g = static_cast<std::size_t>(mine.gpu);
      ONES_EXPECT_MSG(mine == fresh.workers_[static_cast<std::size_t>(want.begin + w)] &&
                          gpu_watts_[g] == fresh.gpu_watts_[g] &&
                          gpu_front_[g] == fresh.gpu_front_[g],
                      "energy meter draws diverged: stale worker watts");
    }
    ONES_EXPECT_MSG(have.joules == nullptr || have.joules == &joules_by_job_.at(have.job),
                    "energy meter draw lost its joules entry");
  }
  ONES_EXPECT_MSG(fresh.watts_by_node_ == watts_by_node_, "energy meter node watts diverged");
  ONES_EXPECT_MSG(fresh.overhead_watts_ == overhead_watts_ && fresh.cluster_watts_ == cluster_watts_,
                  "energy meter cluster watts diverged");
}

double EnergyMeter::job_watts(JobId job) const {
  const auto it = std::lower_bound(draws_.begin(), draws_.end(), job,
                                   [](const Draw& d, JobId j) { return d.job < j; });
  return it != draws_.end() && it->job == job ? it->watts : 0.0;
}

double EnergyMeter::job_joules(JobId job) const {
  const auto it = joules_by_job_.find(job);
  return it == joules_by_job_.end() ? 0.0 : it->second;
}

void EnergyMeter::publish(double now) {
  if (registry_ == nullptr) return;
  registry_->timeline().record(watts_series_, now, cluster_watts_);
  registry_->gauge("energy_cluster_watts").set(cluster_watts_);
}

void EnergyMeter::on_assignment(const cluster::Assignment& next, double now) {
  accumulate(now);
  rescan(next);
  publish(now);
}

void EnergyMeter::finalize(double now) {
  accumulate(now);
  publish(now);
}

}  // namespace ones::energy
