#include "core/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/expect.hpp"
#include "energy/power_model.hpp"
#include "sched/placement.hpp"

namespace ones::core {

const JobEntry* EvolutionContext::find(JobId job) const {
  const auto it = std::lower_bound(
      jobs.begin(), jobs.end(), job,
      [](const JobEntry& e, JobId j) { return e.id < j; });
  return it != jobs.end() && it->id == job ? &*it : nullptr;
}

const JobEntry& EvolutionContext::entry(JobId job) const {
  const JobEntry* e = find(job);
  ONES_EXPECT_MSG(e != nullptr, "candidate references a job outside the state");
  return *e;
}

EvolutionContext make_context(const sched::ClusterState& state,
                              const predict::ProgressPredictor* predictor,
                              const BatchLimitManager* limits) {
  ONES_EXPECT(limits != nullptr && state.current != nullptr);
  EvolutionContext ctx;
  ctx.state = &state;
  ctx.predictor = predictor;
  ctx.limits = limits;
  const auto& active = state.active_jobs();
  // Arrival positions of the active jobs, sorted by JobId.
  std::vector<std::size_t> order(active.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return active[a]->spec.id < active[b]->spec.id;
  });
  ctx.jobs.reserve(active.size());
  ctx.by_arrival.resize(active.size());
  for (const std::size_t i : order) {
    const sched::JobView* v = active[i];
    ctx.by_arrival[i] = ctx.jobs.size();
    ctx.jobs.push_back({.id = v->spec.id,
                        .view = v,
                        .limit = Evolution::effective_limit(*v, ctx),
                        .warm = limits->warmed_up(*v),
                        .expected_remaining = predictor != nullptr
                                                  ? predictor->expected_remaining_samples(*v)
                                                  : v->dataset_size()});
  }
  ctx.live_jobs = state.current->running_jobs();
  return ctx;
}

Evolution::Evolution(const EvolutionConfig& config) : config_(config), rng_(config.seed) {}

std::size_t Evolution::population_size(const EvolutionContext& ctx) const {
  if (config_.population_size > 0) return config_.population_size;
  return static_cast<std::size_t>(ctx.state->topology->total_gpus());
}

int Evolution::start_batch(const JobEntry& job) {
  return std::max(1, std::min(job.limit, job.view->profile->max_local_batch));
}

double Evolution::remaining_samples(const sched::JobView& job, double rho) {
  // One-epoch floor: a job that has processed nothing would otherwise have
  // Y_processed * (1/rho - 1) == 0 and be invisible to the objective.
  const double y_proc = std::max(job.samples_processed, job.dataset_size());
  rho = std::clamp(rho, 1e-3, 1.0 - 1e-3);
  return y_proc * (1.0 / rho - 1.0);
}

int Evolution::effective_limit(const sched::JobView& job, const EvolutionContext& ctx) {
  int r = ctx.limits->limit(job);
  if (job.status == sched::JobStatus::Running && job.global_batch > 0) {
    // Gradual-scaling rule: at most one doubling per re-configuration.
    r = std::min(r, 2 * job.global_batch);
  }
  return std::max(r, 1);
}

std::vector<double> Evolution::rho_column(const EvolutionContext& ctx, Rng* rng) {
  std::vector<double> rho(ctx.jobs.size(), 0.5);  // predictor ablation: uninformed midpoint
  if (ctx.predictor == nullptr) return rho;
  // Arrival order: the draw sequence is part of the seeded search.
  for (const std::size_t i : ctx.by_arrival) {
    const auto dist = ctx.predictor->predict(*ctx.jobs[i].view);
    rho[i] = std::clamp(rng != nullptr ? dist.sample(*rng) : dist.mean(), 1e-3, 1.0 - 1e-3);
  }
  return rho;
}

double Evolution::score(const cluster::Assignment& candidate, const EvolutionContext& ctx,
                        const std::vector<double>& rho) const {
  // Eq. 8: sum_j  Y_processed_j * c_j / X_j * (1/rho_j - 1)
  //       = sum_j  Y_remaining_j * c_j / X_j  =  sum_j  T_j * c_j  (SRUF).
  ONES_EXPECT(rho.size() == ctx.jobs.size());
  double total = 0.0;
  const bool energy_aware =
      config_.lambda_energy != 0.0 && ctx.state->power != nullptr;
  const std::vector<JobId> running = candidate.running_jobs();
  for (JobId j : running) {
    const JobEntry& e = ctx.entry(j);
    const sched::JobView& v = *e.view;
    const double x = ctx.state->oracle->estimate_placed_sps(v, candidate);
    const double rem =
        remaining_samples(v, rho[static_cast<std::size_t>(&e - ctx.jobs.data())]);
    total += rem * static_cast<double>(candidate.gpu_count(j)) / x;
    if (energy_aware) {
      // Predicted joules to finish under this placement, in TDP-GPU-second
      // units so lambda trades them against the SRUF GPU-seconds above.
      const auto gpus = candidate.gpus_of(j);
      std::vector<int> batches;
      batches.reserve(gpus.size());
      for (GpuId g : gpus) batches.push_back(candidate.slot(g).local_batch);
      const double watts = ctx.state->power->job_watts(
          *v.profile, batches, ctx.state->topology->link_profile(gpus));
      total += config_.lambda_energy * (rem / x) * watts /
               ctx.state->power->config().gpu_busy_w;
    }
  }
  // Switching surcharge relative to the live schedule: re-configuring or
  // preempting running jobs is not free, so a challenger must beat the
  // incumbent by at least the cost of deploying it.
  const cluster::Assignment& live = *ctx.state->current;
  for (JobId j : running) {
    if (ctx.entry(j).view->status != sched::JobStatus::Running) continue;  // resume charged below
    if (!live.same_placement(candidate, j)) {
      total += config_.switch_penalty_s * static_cast<double>(candidate.gpu_count(j));
    }
  }
  for (JobId j : ctx.live_jobs) {
    if (candidate.gpu_count(j) == 0) {
      total += config_.preempt_penalty_s * static_cast<double>(live.gpu_count(j));
    }
  }
  return total;
}

void Evolution::clamp_job(cluster::Assignment& candidate, const JobEntry& entry) {
  const JobId job = entry.id;
  auto gpus = candidate.gpus_of(job);
  if (gpus.empty()) return;
  const int r_limit = entry.limit;
  const bool warm = entry.warm;

  int target_c = static_cast<int>(gpus.size());
  if (!warm) target_c = 1;                       // Start policy: one GPU
  target_c = std::min(target_c, r_limit);        // every worker needs a sample
  target_c = std::max(target_c, 1);
  while (static_cast<int>(gpus.size()) > target_c) {
    candidate.clear(gpus.back());
    gpus.pop_back();
  }

  const int max_b = std::min(r_limit, target_c * entry.view->profile->max_local_batch);
  // Even re-split (repairs crossover children with lopsided inherited genes).
  sched::place_job_even(candidate, job, gpus,
                        std::clamp(candidate.global_batch(job), target_c, max_b));
}

void Evolution::repair(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  // One pass: evicting or clamping a job touches only that job's GPUs, so
  // the order of the two never matters.
  for (JobId j : candidate.running_jobs()) {
    const JobEntry* e = ctx.find(j);
    if (e == nullptr || e->view->status == sched::JobStatus::Completed) {
      candidate.evict(j);
    } else {
      clamp_job(candidate, *e);
    }
  }
}

void Evolution::fill_idle(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  struct Action {
    bool resume = false;
    const JobEntry* job = nullptr;
  };
  const sched::ThroughputOracle& oracle = *ctx.state->oracle;
  std::vector<Action> actions;
  std::vector<double> weights;
  std::vector<Action> spreads;
  std::vector<double> spread_weights;

  for (;;) {
    const int idle = candidate.idle_count();
    if (idle == 0) return;
    actions.clear();
    weights.clear();
    spreads.clear();
    spread_weights.clear();

    // Resume options: active jobs absent from this candidate start on one GPU.
    for (const std::size_t i : ctx.by_arrival) {
      const JobEntry& e = ctx.jobs[i];
      if (candidate.gpu_count(e.id) > 0) continue;
      actions.push_back({true, &e});
      weights.push_back(std::max(e.expected_remaining, 1.0));
    }

    // One pass over the running jobs collects both growth options; spread
    // options are appended after all scale-up options, so the weighted draw
    // always lists resume, then scale-up, then spread options.
    for (JobId j : candidate.running_jobs()) {
      const JobEntry& e = ctx.entry(j);
      if (!e.warm) continue;
      const sched::JobView& v = *e.view;
      const int b = candidate.global_batch(j);
      const int c = candidate.gpu_count(j);
      const double y = std::max(e.expected_remaining, 1.0);
      // Scale-up: a job whose limit R still allows more batch gains
      // floor(R*c/B) - c more GPUs (Figure 7's utilization-gain sampling).
      const int local = std::max(1, b / c);
      const int up_c = b < e.limit ? std::min(static_cast<int>(e.limit / local), c + idle) : c;
      // Spread: when batch limits bind, idle GPUs can still speed a job up
      // by spreading its (fixed) batch over more workers — idle GPUs have no
      // opportunity cost, and Eq. 4 wants the cluster saturated.
      const int spread_c = std::min({2 * c, b, c + idle});
      if (up_c <= c && spread_c <= c) continue;

      const double x1 = oracle.estimate_placed_sps(v, candidate);
      if (up_c > c) {
        const int b2 = std::min(e.limit, local * up_c);
        const double x2 = oracle.estimate_sps(v, up_c, b2, oracle.can_colocate(up_c));
        const double gain =
            y * (static_cast<double>(c) / x1 - static_cast<double>(up_c) / x2);
        actions.push_back({false, &e});
        weights.push_back(std::max(gain, 1e-6));
      }
      if (spread_c > c) {
        const double x2 = oracle.estimate_sps(v, spread_c, b, oracle.can_colocate(spread_c));
        if (x2 > x1 * 1.02) {  // else not worth the extra workers
          const double gain = y * (1.0 / x1 - 1.0 / x2);
          spreads.push_back({false, &e});
          spread_weights.push_back(std::max(gain, 1e-6));
        }
      }
    }
    actions.insert(actions.end(), spreads.begin(), spreads.end());
    weights.insert(weights.end(), spread_weights.begin(), spread_weights.end());

    if (actions.empty()) return;  // nothing can use the idle GPUs
    const Action act = actions[rng_.weighted_index(weights)];
    const JobEntry& e = *act.job;
    const JobId job = e.id;
    const std::vector<GpuId> idle_gpus = candidate.idle_gpus();

    if (act.resume) {
      candidate.place(idle_gpus.front(), job, start_batch(e));
    } else {
      const int r_limit = e.limit;
      const int b = candidate.global_batch(job);
      const int c = candidate.gpu_count(job);
      const int local = std::max(1, b / c);
      // Grow the worker set: up to the batch-limit headroom (grow-batch
      // action) or up to 2x workers at the same batch (spread action) —
      // whichever the idle pool allows.
      const int grow_c = std::max(static_cast<int>(r_limit / local), std::min(2 * c, b));
      const int target_c = std::min(grow_c, c + idle);
      // Every growth option offered above had room for one more worker.
      ONES_EXPECT(target_c > c);
      for (int k = 0; k < target_c - c; ++k) {
        candidate.place(idle_gpus[static_cast<std::size_t>(k)], job, 1);
      }
      // Raise the batch toward the limit with the new worker count, then
      // re-split evenly (clamp_job also enforces memory limits).
      const auto gpus = candidate.gpus_of(job);
      const int n = static_cast<int>(gpus.size());
      sched::place_job_even(candidate, job, gpus,
                            std::clamp(std::min(r_limit, local * n), n,
                                       n * e.view->profile->max_local_batch));
      clamp_job(candidate, e);
    }
  }
}

void Evolution::refresh(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  // (1) Clean up GPUs of completed (or unknown) jobs, and (2) scale down
  //     any other job whose batch exceeds its current limit R: drop to
  //     floor(R*c/B) GPUs and batch R (paper's rule), then clamp. One pass:
  //     each step touches only its own job's GPUs.
  for (JobId j : candidate.running_jobs()) {
    const JobEntry* e = ctx.find(j);
    if (e == nullptr || e->view->status == sched::JobStatus::Completed) {
      candidate.evict(j);
      continue;
    }
    const int r_limit = e->limit;
    const int b = candidate.global_batch(j);
    if (r_limit < b) {
      const int c = candidate.gpu_count(j);
      const int target_c =
          std::max(1, static_cast<int>(static_cast<std::int64_t>(r_limit) * c / b));
      auto gpus = candidate.gpus_of(j);
      while (static_cast<int>(gpus.size()) > target_c) {
        candidate.clear(gpus.back());
        gpus.pop_back();
      }
      const int base = std::max(r_limit, target_c) / target_c;
      for (std::size_t i = 0; i < gpus.size(); ++i) candidate.place(gpus[i], j, base);
    }
    clamp_job(candidate, *e);
  }

  // (3) Preferential allocation of newly arrived jobs (never ran, absent
  //     from this candidate): one GPU each; if the candidate lacks idle
  //     GPUs, take them from the jobs with the largest executed time.
  std::vector<const JobEntry*> fresh;
  for (const std::size_t i : ctx.by_arrival) {
    const JobEntry& e = ctx.jobs[i];
    if (e.view->samples_processed > 0.0) continue;
    if (e.view->epochs_completed > 0) continue;
    if (candidate.gpu_count(e.id) > 0) continue;
    fresh.push_back(&e);
  }
  const int want =
      std::min<int>(static_cast<int>(fresh.size()), candidate.healthy_count());
  while (candidate.idle_count() < want) {
    // Victim: the candidate job with the largest T_processed.
    const JobEntry* victim = nullptr;
    double max_exec = -1.0;
    for (JobId j : candidate.running_jobs()) {
      const JobEntry& e = ctx.entry(j);
      if (e.view->exec_time_s > max_exec) {
        max_exec = e.view->exec_time_s;
        victim = &e;
      }
    }
    if (victim == nullptr) break;
    const auto gpus = candidate.worker_gpus(victim->id);
    const bool shared = gpus.size() > 1;
    candidate.clear(gpus.back());
    if (shared) clamp_job(candidate, *victim);
  }
  {
    auto idle = candidate.idle_gpus();
    std::size_t next = 0;
    for (const JobEntry* e : fresh) {
      if (next >= idle.size()) break;
      candidate.place(idle[next++], e->id, start_batch(*e));
    }
  }

  // (4) Fill any remaining idle GPUs (Figure 7).
  fill_idle(candidate, ctx);
}

std::pair<cluster::Assignment, cluster::Assignment> Evolution::crossover(
    const cluster::Assignment& a, const cluster::Assignment& b) {
  ONES_EXPECT(a.num_gpus() == b.num_gpus());
  // Children inherit the parents' health map; the parents never occupy a
  // down GPU, so neither inherited gene can land on one.
  std::vector<cluster::Slot> s1(static_cast<std::size_t>(a.num_gpus()));
  std::vector<cluster::Slot> s2(s1.size());
  for (int g = 0; g < a.num_gpus(); ++g) {
    const auto& sa = a.slot(g);
    const auto& sb = b.slot(g);
    const bool flip = rng_.bernoulli(0.5);
    const auto i = static_cast<std::size_t>(g);
    s1[i] = flip ? sb : sa;
    s2[i] = flip ? sa : sb;
    s1[i].health = s2[i].health = sa.health;
  }
  return {cluster::Assignment::from_slots(std::move(s1)),
          cluster::Assignment::from_slots(std::move(s2))};
}

void Evolution::mutate(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  for (JobId j : candidate.running_jobs()) {
    if (rng_.bernoulli(config_.mutation_rate)) {
      candidate.evict(j);
    }
  }
  fill_idle(candidate, ctx);
}

cluster::Assignment Evolution::reorder(const cluster::Assignment& candidate) {
  std::vector<cluster::Slot> packed(static_cast<std::size_t>(candidate.num_gpus()));
  for (const GpuId g : candidate.unhealthy_gpus()) {
    packed[static_cast<std::size_t>(g)].health = candidate.health(g);
  }
  std::size_t next = 0;
  for (JobId j : candidate.running_jobs()) {  // first-occurrence order
    for (GpuId g : candidate.worker_gpus(j)) {
      // Pack onto the healthy GPUs in ascending order.
      while (next < packed.size() && !packed[next].healthy()) ++next;
      ONES_EXPECT_MSG(next < packed.size(), "more workers than healthy GPUs");
      packed[next].job = j;
      packed[next].local_batch = candidate.slot(g).local_batch;
      ++next;
    }
  }
  return cluster::Assignment::from_slots(std::move(packed));
}

void Evolution::ensure_population(const EvolutionContext& ctx) {
  const std::size_t k = population_size(ctx);
  const int n = ctx.state->topology->total_gpus();
  if (!population_.empty() && population_.front().num_gpus() == n &&
      population_.size() == k) {
    return;
  }
  population_.clear();
  population_.reserve(k);
  const std::vector<const sched::JobView*> active = ctx.state->active_jobs();
  for (std::size_t i = 0; i < k; ++i) {
    cluster::Assignment cand = cluster::Assignment::empty_like(*ctx.state->current);
    if (!active.empty()) {
      // The paper's simple initialization: a random job on each healthy GPU.
      for (int g = 0; g < n; ++g) {
        if (!cand.slot(g).healthy()) continue;
        const auto* v = active[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
        cand.place(g, v->spec.id, 1);
      }
      repair(cand, ctx);
    }
    refresh(cand, ctx);
    population_.push_back(std::move(cand));
  }
}

void Evolution::step(const EvolutionContext& ctx) {
  // One evolution generation (DESIGN.md §14): phase spans cover refresh,
  // offspring production (crossover + mutation + repair/reorder) and
  // selection, nested under `evolve.step`.
  const prof::Scope step_span(profiler_, "evolve.step");
  ensure_population(ctx);
  const std::size_t k = population_size(ctx);
  std::uint64_t crossovers = 0, mutations = 0, reorders = 0;

  // Refresh the whole population against real-time status (elitism: the
  // refreshed originals compete with their offspring). Health first: cached
  // genomes may predate a failure/repair (DESIGN.md §13).
  {
    const prof::Scope refresh_span(profiler_, "evolve.refresh");
    for (auto& cand : population_) {
      cand.sync_health(*ctx.state->current);
      refresh(cand, ctx);
      if (config_.use_reorder) {
        cand = reorder(cand);
        ++reorders;
      }
    }
  }

  // The refreshed population becomes the first `pop` candidates and the
  // parents of this generation's offspring; selection refills population_.
  std::vector<cluster::Assignment> cands = std::move(population_);
  population_.clear();
  const std::size_t pop = cands.size();
  cands.reserve(pop + 3 * k + 1);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pop) - 1));
  };

  {
    const prof::Scope offspring_span(profiler_, "evolve.offspring");
    // The incumbent (live schedule) always competes: unless a challenger
    // beats it including switching costs, ONES keeps the cluster undisturbed.
    {
      cluster::Assignment incumbent = *ctx.state->current;
      repair(incumbent, ctx);
      fill_idle(incumbent, ctx);
      cands.push_back(std::move(incumbent));
    }

    if (config_.use_crossover && pop >= 2) {
      const prof::Scope crossover_span(profiler_, "evolve.crossover");
      for (std::size_t i = 0; i < k; ++i) {
        std::size_t a = pick(), b = pick();
        if (a == b) b = (b + 1) % pop;
        auto [c1, c2] = crossover(cands[a], cands[b]);
        ++crossovers;
        repair(c1, ctx);
        fill_idle(c1, ctx);
        repair(c2, ctx);
        fill_idle(c2, ctx);
        if (config_.use_reorder) {
          c1 = reorder(c1);
          c2 = reorder(c2);
          reorders += 2;
        }
        cands.push_back(std::move(c1));
        cands.push_back(std::move(c2));
      }
    }

    if (config_.use_mutation && pop > 0) {
      const prof::Scope mutate_span(profiler_, "evolve.mutate");
      for (std::size_t i = 0; i < k; ++i) {
        cluster::Assignment m = cands[pick()];
        mutate(m, ctx);
        ++mutations;
        repair(m, ctx);
        fill_idle(m, ctx);
        if (config_.use_reorder) {
          m = reorder(m);
          ++reorders;
        }
        cands.push_back(std::move(m));
      }
    }
  }

  // Selection: score every candidate under one rho draw (Algorithm 1) and
  // keep the best K.
  const prof::Scope select_span(profiler_, "evolve.select");
  const std::vector<double> rho = sample_rho(ctx);
  std::vector<double> scores(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) scores[i] = score(cands[i], ctx, rho);
  std::vector<std::size_t> order(cands.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });

  population_.reserve(k);
  for (std::size_t i = 0; i < order.size() && population_.size() < k; ++i) {
    population_.push_back(std::move(cands[order[i]]));
  }

  if (metrics_ != nullptr) {
    metrics_->counter("ones_evolution_steps_total").add();
    metrics_->counter("ones_crossovers_total").add(static_cast<double>(crossovers));
    metrics_->counter("ones_mutations_total").add(static_cast<double>(mutations));
    metrics_->counter("ones_reorders_total").add(static_cast<double>(reorders));
    metrics_->gauge("ones_best_score").set(scores[order[0]]);
    metrics_->gauge("ones_population_size").set(static_cast<double>(population_.size()));
  }
}

cluster::Assignment Evolution::best(const EvolutionContext& ctx) {
  ensure_population(ctx);
  for (auto& cand : population_) {
    cand.sync_health(*ctx.state->current);
    refresh(cand, ctx);
  }
  const std::vector<double> rho = mean_rho(ctx);
  std::size_t best_i = 0;
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < population_.size(); ++i) {
    const double s = score(population_[i], ctx, rho);
    if (s < best_s) {
      best_s = s;
      best_i = i;
    }
  }
  return population_[best_i];
}

}  // namespace ones::core
