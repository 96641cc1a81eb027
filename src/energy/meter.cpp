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
      joules_by_node_(static_cast<std::size_t>(topology.num_nodes()), 0.0) {
  ONES_EXPECT(profile_of_ != nullptr);
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

const EnergyMeter::Draw* EnergyMeter::find_draw(JobId job) const {
  const auto it = std::lower_bound(draws_.begin(), draws_.end(), job,
                                   [](const Draw& d, JobId j) { return d.job < j; });
  return it != draws_.end() && it->job == job ? &*it : nullptr;
}

void EnergyMeter::rescan(const cluster::Assignment& next) {
  // Per-node base draw is unconditional: a node is powered whether or not
  // any of its GPUs host a worker.
  const double base = model_->node_base_watts();
  watts_by_node_.assign(watts_by_node_.size(), base);
  overhead_watts_ = base * static_cast<double>(topology_->num_nodes());

  next_draws_.clear();
  next_workers_.clear();
  for (const JobId job : next.running_jobs()) {
    const auto gpus = next.worker_gpus(job);
    const Draw* old = find_draw(job);
    Draw draw{.job = job,
              .begin = static_cast<int>(next_workers_.size()),
              .count = static_cast<int>(gpus.size()),
              .watts = 0.0,
              .joules = old != nullptr ? old->joules : nullptr};
    const auto unchanged = [&] {
      if (old->count != draw.count) return false;
      for (std::size_t i = 0; i < gpus.size(); ++i) {
        const Worker& w = workers_[static_cast<std::size_t>(old->begin) + i];
        if (w.gpu != gpus[i] || w.local_batch != next.slot(gpus[i]).local_batch) return false;
      }
      return true;
    };
    // Same GPUs and batches give the same watts: only a moved job is priced.
    if (old != nullptr && unchanged()) {
      const auto first = workers_.begin() + old->begin;
      next_workers_.insert(next_workers_.end(), first, first + old->count);
      draw.watts = old->watts;
    } else {
      const model::TaskProfile* profile = profile_of_(job);
      ONES_EXPECT_MSG(profile != nullptr, "no task profile for a placed job");
      gpus_scratch_.assign(gpus.begin(), gpus.end());
      batches_scratch_.clear();
      for (const GpuId g : gpus) batches_scratch_.push_back(next.slot(g).local_batch);
      const cluster::LinkProfile link = topology_->link_profile(gpus_scratch_);
      for (std::size_t i = 0; i < gpus.size(); ++i) {
        const double w = model_->worker_watts(*profile, batches_scratch_, i, link);
        next_workers_.push_back({gpus[i], batches_scratch_[i], w});
        draw.watts += w;
      }
    }
    // Node sums keep running_jobs() order, then the idle GPUs below.
    for (int i = draw.begin; i < draw.begin + draw.count; ++i) {
      const Worker& w = next_workers_[static_cast<std::size_t>(i)];
      watts_by_node_[static_cast<std::size_t>(topology_->node_of(w.gpu))] += w.watts;
    }
    next_draws_.push_back(draw);
  }

  const double idle = model_->idle_gpu_watts();
  for (GpuId g : next.idle_gpus()) {
    watts_by_node_[static_cast<std::size_t>(topology_->node_of(g))] += idle;
    overhead_watts_ += idle;
  }

  const auto by_job = [](const Draw& a, const Draw& b) { return a.job < b.job; };
  if (!std::is_sorted(next_draws_.begin(), next_draws_.end(), by_job)) {
    std::sort(next_draws_.begin(), next_draws_.end(), by_job);
  }
  draws_.swap(next_draws_);
  workers_.swap(next_workers_);
  // Cluster watts in JobId order.
  cluster_watts_ = overhead_watts_;
  for (const Draw& draw : draws_) cluster_watts_ += draw.watts;
}

void EnergyMeter::audit(const cluster::Assignment& current) const {
  EnergyMeter fresh(*model_, *topology_, profile_of_);
  fresh.rescan(current);  // nothing cached: every job priced from scratch
  ONES_EXPECT_MSG(fresh.draws_.size() == draws_.size(),
                  "energy meter draws diverged: wrong set of placed jobs");
  for (std::size_t i = 0; i < draws_.size(); ++i) {
    const Draw& have = draws_[i];
    const Draw& want = fresh.draws_[i];
    ONES_EXPECT_MSG(have.job == want.job && have.count == want.count && have.watts == want.watts,
                    "energy meter draws diverged: stale job watts");
    const auto mine = workers_.begin() + have.begin;
    ONES_EXPECT_MSG(std::equal(mine, mine + have.count, fresh.workers_.begin() + want.begin),
                    "energy meter draws diverged: stale worker watts");
    ONES_EXPECT_MSG(have.joules == nullptr || have.joules == &joules_by_job_.at(have.job),
                    "energy meter draw lost its joules entry");
  }
  ONES_EXPECT_MSG(fresh.watts_by_node_ == watts_by_node_, "energy meter node watts diverged");
  ONES_EXPECT_MSG(fresh.overhead_watts_ == overhead_watts_ && fresh.cluster_watts_ == cluster_watts_,
                  "energy meter cluster watts diverged");
}

double EnergyMeter::job_watts(JobId job) const {
  const Draw* draw = find_draw(job);
  return draw != nullptr ? draw->watts : 0.0;
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
