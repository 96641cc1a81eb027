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
  const std::vector<JobId>& running = candidate.running_jobs();
  for (JobId j : running) {
    const JobEntry& e = ctx.entry(j);
    const sched::JobView& v = *e.view;
    const cluster::JobPlacement p = candidate.placement(j);
    const double x = ctx.state->oracle->estimate_placed_sps(v, p);
    const double rem =
        remaining_samples(v, rho[static_cast<std::size_t>(&e - ctx.jobs.data())]);
    total += rem * static_cast<double>(p.workers) / x;
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

std::vector<double> Evolution::score_all(const std::vector<cluster::Assignment>& cands,
                                         const EvolutionContext& ctx,
                                         const std::vector<double>& rho,
                                         std::size_t* scored) const {
  // Sorting (hash, index) pairs puts the copies of one slot array next to
  // each other, first copy first; operator== confirms every hash match, so a
  // collision costs one extra score, never a wrong one.
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) keyed[i] = {cands[i].hash(), i};
  std::sort(keyed.begin(), keyed.end());
  std::vector<double> scores(cands.size());
  std::size_t distinct = 0;
  std::size_t run = 0;  // first position of the current hash value
  for (std::size_t a = 0; a < keyed.size(); ++a) {
    if (keyed[a].first != keyed[run].first) run = a;
    const std::size_t i = keyed[a].second;
    std::size_t b = run;
    while (b < a && !(cands[keyed[b].second] == cands[i])) ++b;
    if (b < a) {
      scores[i] = scores[keyed[b].second];
    } else {
      scores[i] = score(cands[i], ctx, rho);
      ++distinct;
    }
  }
  if (scored != nullptr) *scored = distinct;
  return scores;
}

void Evolution::clamp_job(cluster::Assignment& candidate, const JobEntry& entry) {
  const JobId job = entry.id;
  auto gpus = candidate.worker_gpus(job);
  if (gpus.empty()) return;
  // Start policy: one GPU until warm; every worker needs a sample.
  const int c = static_cast<int>(gpus.size());
  const int target_c = std::max(1, std::min(entry.warm ? c : 1, entry.limit));
  if (c > target_c) {
    for (int k = c; k > target_c; --k) candidate.clear(candidate.worker_gpus(job).back());
    gpus = candidate.worker_gpus(job);
  }

  const int max_b = std::min(entry.limit, target_c * entry.view->profile->max_local_batch);
  const int batch = std::clamp(candidate.global_batch(job), target_c, max_b);
  // Even re-split (repairs crossover children with lopsided inherited genes),
  // unless the job already holds it.
  if (!sched::holds_even_split(candidate, job, gpus, batch)) {
    sched::place_job_even(candidate, job, gpus, batch);
  }
}

void Evolution::repair(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  // One pass: evicting or clamping a job touches only that job's GPUs, so
  // the order of the two never matters.
  const std::vector<JobId> running = candidate.running_jobs();
  for (JobId j : running) {
    const JobEntry* e = ctx.find(j);
    if (e == nullptr || e->view->status == sched::JobStatus::Completed) {
      candidate.evict(j);
    } else {
      clamp_job(candidate, *e);
    }
  }
}

void Evolution::fill_idle(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  if (candidate.idle_count() == 0) return;
  const sched::ThroughputOracle& oracle = *ctx.state->oracle;
  // One option row per job of ctx.jobs. A row depends on its job's own
  // placement and, through the `c + idle` caps, on the idle count. Each
  // placement below grows one job and shrinks the idle pool, so only that
  // job's row and the rows whose cap binds are recomputed.
  struct Row {
    bool placed = false;  ///< in the candidate when fill_idle started
    bool stale = true;
    int min_idle = 0;     ///< below this idle count a cap binds: recompute
    double up = 0.0;      ///< scale-up weight; 0 = no such option
    double spread = 0.0;  ///< spread weight; 0 = no such option
  };
  std::vector<Row> rows(ctx.jobs.size());
  // Rows of the candidate's running jobs, in first-occurrence order.
  std::vector<std::size_t> running_rows;
  running_rows.reserve(ctx.jobs.size());
  for (JobId j : candidate.running_jobs()) {
    const auto i = static_cast<std::size_t>(&ctx.entry(j) - ctx.jobs.data());
    rows[i].placed = true;
    running_rows.push_back(i);
  }

  const auto compute = [&](Row& row, const JobEntry& e, int idle) {
    const sched::JobView& v = *e.view;
    const cluster::JobPlacement p = candidate.placement(e.id);
    const int b = p.global_batch;
    const int c = p.workers;
    const double y = std::max(e.expected_remaining, 1.0);
    // Scale-up: a job whose limit R still allows more batch gains
    // floor(R*c/B) - c more GPUs (Figure 7's utilization-gain sampling).
    const int local = std::max(1, b / c);
    const int up_free = b < e.limit ? static_cast<int>(e.limit / local) : c;
    // Spread: when batch limits bind, idle GPUs can still speed a job up
    // by spreading its (fixed) batch over more workers — idle GPUs have no
    // opportunity cost, and Eq. 4 wants the cluster saturated.
    const int spread_free = std::min(2 * c, b);
    const int up_c = std::min(up_free, c + idle);
    const int spread_c = std::min(spread_free, c + idle);
    row = Row{.stale = false, .min_idle = std::max(up_free, spread_free) - c};
    if (up_c <= c && spread_c <= c) return;

    const double x1 = oracle.estimate_placed_sps(v, p);
    if (up_c > c) {
      const int b2 = std::min(e.limit, local * up_c);
      const double x2 = oracle.estimate_sps(v, up_c, b2, oracle.can_colocate(up_c));
      const double gain = y * (static_cast<double>(c) / x1 - static_cast<double>(up_c) / x2);
      row.up = std::max(gain, 1e-6);
    }
    if (spread_c > c) {
      const double x2 = oracle.estimate_sps(v, spread_c, b, oracle.can_colocate(spread_c));
      if (x2 > x1 * 1.02) {  // else not worth the extra workers
        const double gain = y * (1.0 / x1 - 1.0 / x2);
        row.spread = std::max(gain, 1e-6);
      }
    }
  };

  struct Action {
    bool resume = false;
    std::size_t row = 0;
  };
  // Resume options lead the list: active jobs absent from this candidate,
  // in arrival order, each offered until it resumes.
  std::vector<Action> actions;
  std::vector<double> weights;
  for (const std::size_t i : ctx.by_arrival) {
    if (rows[i].placed) continue;
    actions.push_back({true, i});
    weights.push_back(std::max(ctx.jobs[i].expected_remaining, 1.0));
  }
  std::size_t resumes = actions.size();
  std::vector<Action> spreads;
  std::vector<double> spread_weights;
  for (;;) {
    const int idle = candidate.idle_count();
    if (idle == 0) return;
    actions.resize(resumes);
    weights.resize(resumes);
    spreads.clear();
    spread_weights.clear();

    // Growth options of the warm running jobs: the weighted draw always
    // lists resume, then scale-up, then spread options, each in order.
    for (const std::size_t i : running_rows) {
      if (!ctx.jobs[i].warm) continue;
      Row& row = rows[i];
      if (row.stale || idle < row.min_idle) compute(row, ctx.jobs[i], idle);
      if (row.up > 0.0) {
        actions.push_back({false, i});
        weights.push_back(row.up);
      }
      if (row.spread > 0.0) {
        spreads.push_back({false, i});
        spread_weights.push_back(row.spread);
      }
    }
    actions.insert(actions.end(), spreads.begin(), spreads.end());
    weights.insert(weights.end(), spread_weights.begin(), spread_weights.end());

    if (actions.empty()) return;  // nothing can use the idle GPUs
    const std::size_t pick = rng_.weighted_index(weights);
    const Action act = actions[pick];
    const JobEntry& e = ctx.jobs[act.row];
    const JobId job = e.id;
    rows[act.row].stale = true;
    // Placing a worker on the lowest idle GPU removes it from the pool, so
    // successive placements walk the idle GPUs in ascending order.
    if (act.resume) {
      actions.erase(actions.begin() + static_cast<std::ptrdiff_t>(pick));
      weights.erase(weights.begin() + static_cast<std::ptrdiff_t>(pick));
      --resumes;
      candidate.place(candidate.idle_gpus().front(), job, start_batch(e));
    } else {
      running_rows.erase(std::find(running_rows.begin(), running_rows.end(), act.row));
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
        candidate.place(candidate.idle_gpus().front(), job, 1);
      }
      // Raise the batch toward the limit with the new worker count, then
      // re-split evenly (clamp_job also enforces memory limits).
      const int n = candidate.gpu_count(job);
      sched::place_job_even(candidate, job, candidate.worker_gpus(job),
                            std::clamp(std::min(r_limit, local * n), n,
                                       n * e.view->profile->max_local_batch));
      clamp_job(candidate, e);
    }
    // The acted job may have moved in the first-occurrence order (a resume
    // joins it; growing can take a GPU below the job's lowest); every other
    // job kept its GPUs and so its place.
    const auto& running = candidate.running_jobs();
    running_rows.insert(
        running_rows.begin() + (std::find(running.begin(), running.end(), job) - running.begin()),
        act.row);
  }
}

void Evolution::refresh(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  // (1) Clean up GPUs of completed (or unknown) jobs, and (2) scale down
  //     any other job whose batch exceeds its current limit R: drop to
  //     floor(R*c/B) GPUs and batch R (paper's rule), then clamp. One pass:
  //     each step touches only its own job's GPUs.
  const std::vector<JobId> running = candidate.running_jobs();
  for (JobId j : running) {
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
      for (int k = c; k > target_c; --k) candidate.clear(candidate.worker_gpus(j).back());
      const int base = std::max(r_limit, target_c) / target_c;
      for (const GpuId g : candidate.worker_gpus(j)) candidate.place(g, j, base);
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
  for (const JobEntry* e : fresh) {
    if (candidate.idle_count() == 0) break;
    candidate.place(candidate.idle_gpus().front(), e->id, start_batch(*e));
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
  const std::vector<JobId> running = candidate.running_jobs();
  for (JobId j : running) {
    if (rng_.bernoulli(config_.mutation_rate)) {
      candidate.evict(j);
    }
  }
  fill_idle(candidate, ctx);
}

bool Evolution::is_packed(const cluster::Assignment& candidate) {
  bool idle_seen = false;
  JobId run = kInvalidJob;  // job of the current run of workers
  for (GpuId g = 0; g < candidate.num_gpus(); ++g) {
    const cluster::Slot& s = candidate.slot(g);
    if (!s.healthy()) {
      if (s.occupied()) return false;
      continue;  // reorder skips down GPUs
    }
    if (!s.occupied()) {
      idle_seen = true;
      continue;
    }
    if (idle_seen) return false;
    if (s.job != run) {
      // A new run must hold the job's lowest GPU, else the job's workers
      // are split across runs.
      if (candidate.worker_gpus(s.job).front() != g) return false;
      run = s.job;
    }
  }
  return true;
}

cluster::Assignment Evolution::reorder(cluster::Assignment candidate) {
  if (is_packed(candidate)) return candidate;
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
        cand = reorder(std::move(cand));
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
          c1 = reorder(std::move(c1));
          c2 = reorder(std::move(c2));
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
          m = reorder(std::move(m));
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
  std::size_t scored = 0;
  const std::vector<double> scores = score_all(cands, ctx, rho, &scored);
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
    metrics_->counter("ones_candidates_scored_total").add(static_cast<double>(scored));
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
  const std::vector<double> scores = score_all(population_, ctx, mean_rho(ctx));
  std::size_t best_i = 0;
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] < best_s) {
      best_s = scores[i];
      best_i = i;
    }
  }
  return population_[best_i];
}

}  // namespace ones::core
