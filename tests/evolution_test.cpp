// Unit tests for the ONES core: batch-limit policies (§3.3.2) and the
// evolutionary operators / SRUF scoring (§3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <set>
#include <vector>

#include "core/batch_policy.hpp"
#include "core/evolution.hpp"
#include "predict/progress_predictor.hpp"
#include "sched/oracle.hpp"
#include "sched/placement.hpp"
#include "telemetry/registry.hpp"

namespace ones::core {
namespace {

// Builds a fake ClusterState with controllable jobs, for exercising the
// evolution operators without a full simulation.
class Fixture {
 public:
  static cluster::Topology make_topo(int nodes) {
    cluster::TopologyConfig c;
    c.num_nodes = nodes;
    c.gpus_per_node = 4;
    return cluster::Topology(c);
  }

  explicit Fixture(int nodes = 2)
      : topo_(make_topo(nodes)), current_(topo_.total_gpus()), oracle_(topo_) {}

  sched::JobView& add_job(JobId id, const char* model, std::int64_t dataset,
                          sched::JobStatus status, int epochs_done = 0,
                          double exec_time = 0.0) {
    auto v = std::make_unique<sched::JobView>();
    v->spec.id = id;
    v->spec.variant = {model, "t", dataset, 10};
    v->spec.requested_gpus = 1;
    v->profile = &model::profile_by_name(model);
    v->spec.requested_batch = std::min(v->profile->b_ref, v->profile->max_local_batch);
    v->init_loss = v->profile->init_loss;
    v->status = status;
    v->epochs_completed = epochs_done;
    v->exec_time_s = exec_time;
    v->samples_processed = static_cast<double>(dataset) * epochs_done;
    v->train_loss = v->profile->init_loss * 0.5;
    v->val_accuracy = 0.5;
    views_.push_back(std::move(v));
    limits_.on_job_arrival(*views_.back(), 0.0);
    return *views_.back();
  }

  /// Mark a job as running in the live assignment.
  void run_on(JobId id, std::vector<GpuId> gpus, int batch) {
    auto& v = view(id);
    const int local = batch / static_cast<int>(gpus.size());
    for (GpuId g : gpus) current_.place(g, id, local);
    v.status = sched::JobStatus::Running;
    v.gpus = static_cast<int>(gpus.size());
    v.global_batch = batch;
  }

  sched::JobView& view(JobId id) {
    for (auto& v : views_) {
      if (v->spec.id == id) return *v;
    }
    throw std::logic_error("no such job in fixture");
  }

  EvolutionContext context(const predict::ProgressPredictor* predictor = nullptr) {
    state_ = sched::ClusterState{};
    state_.now = 100.0;
    state_.topology = &topo_;
    state_.current = &current_;
    state_.oracle = &oracle_;
    for (auto& v : views_) state_.add_job(v.get());
    return make_context(state_, predictor, &limits_);
  }

  cluster::Topology topo_;
  cluster::Assignment current_;
  sched::ThroughputOracle oracle_;
  sched::ClusterState state_;
  BatchLimitManager limits_;
  std::vector<std::unique_ptr<sched::JobView>> views_;
};

// ---------------- Batch limit policies ----------------

TEST(BatchPolicy, StartLimitFitsOneGpu) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting);
  EXPECT_EQ(f.limits_.limit(v), std::min(v.profile->b_ref, v.profile->max_local_batch));
  EXPECT_FALSE(f.limits_.warmed_up(v));
}

TEST(BatchPolicy, WarmupAfterOneEpoch) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1);
  EXPECT_TRUE(f.limits_.warmed_up(v));
}

TEST(BatchPolicy, ScaleUpDoublesForYoungJobs) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;  // effectively no convoy penalty
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1, 10.0);
  limits.on_job_arrival(v, 0.0);
  const int r0 = limits.limit(v);
  limits.on_epoch_complete(v);
  EXPECT_EQ(limits.limit(v), 2 * r0);
}

TEST(BatchPolicy, ScaleUpIsCappedAtCriticalMultiple) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;
  cfg.r_cap_multiple = 2.0;
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1, 1.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 10; ++e) limits.on_epoch_complete(v);
  EXPECT_LE(limits.limit(v), static_cast<int>(2.0 * v.profile->b_crit));
}

TEST(BatchPolicy, ConvoyPenaltyShrinksLongJobs) {
  BatchPolicyConfig cfg;
  cfg.sigma = 0.1;  // 1/sigma = 10 s
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1, 0.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 6; ++e) limits.on_epoch_complete(v);  // grow young
  const int grown = limits.limit(v);
  v.exec_time_s = 200.0;  // sigma*T = 20 -> strong shrink
  for (int e = 0; e < 8; ++e) limits.on_epoch_complete(v);
  EXPECT_LT(limits.limit(v), grown);
  // But never below the reference configuration.
  EXPECT_GE(limits.limit(v), std::min(v.profile->b_ref, v.profile->max_local_batch));
}

TEST(BatchPolicy, ResumeHalvesWhenLeftWaiting) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;
  cfg.min_limit_divisor = 4;  // let halving actually bite in this test
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 2, 5.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 3; ++e) limits.on_epoch_complete(v);
  const int before = limits.limit(v);
  limits.on_left_waiting(v);
  EXPECT_EQ(limits.limit(v), std::max(before / 2, v.profile->b_ref / 4));
}

TEST(BatchPolicy, PreemptionCapsResumeAtLastBatch) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 3, 5.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 4; ++e) limits.on_epoch_complete(v);
  EXPECT_GT(limits.limit(v), 512);
  limits.on_preempted(v, 512);
  EXPECT_EQ(limits.limit(v), 512);
}

TEST(BatchPolicy, ArrivalRateEstimate) {
  BatchLimitManager limits;
  Fixture f;
  for (int i = 0; i < 5; ++i) {
    auto& v = f.add_job(i, "ResNet18", 20000, sched::JobStatus::Waiting);
    limits.on_job_arrival(v, 10.0 * i);
  }
  EXPECT_NEAR(limits.arrival_rate(), 0.1, 1e-9);
}

// ---------------- Evolution operators ----------------

TEST(Evolution, RefreshFillsIdleClusterWithJobs) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, /*epochs_done=*/1);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, /*epochs_done=*/1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  evo.refresh(cand, ctx);
  // Both jobs admitted and spread over two workers each; the remaining GPUs
  // legitimately stay idle: these small-batch jobs are launch-bound, so a
  // third worker would add communication without any speedup.
  EXPECT_EQ(cand.gpu_count(1), 2);
  EXPECT_EQ(cand.gpu_count(2), 2);
  EXPECT_EQ(cand.idle_count(), f.topo_.total_gpus() - 4);
}

TEST(Evolution, RefreshEvictsCompletedJobs) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Completed, 20);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  for (int g = 0; g < 4; ++g) cand.place(g, 1, 64);  // stale placement
  evo.refresh(cand, ctx);
  EXPECT_EQ(cand.gpu_count(1), 0);
}

TEST(Evolution, RepairAndRefreshEvictCompletedAndUnknownJobs) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Completed, 20);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment stale(f.topo_.total_gpus());
  stale.place(0, 1, 64);   // completed job
  stale.place(1, 1, 64);
  stale.place(2, 99, 64);  // job the state never saw
  stale.place(3, 2, 32);
  cluster::Assignment repaired = stale;
  evo.repair(repaired, ctx);
  cluster::Assignment refreshed = stale;
  evo.refresh(refreshed, ctx);
  for (const auto* cand : {&repaired, &refreshed}) {
    EXPECT_EQ(cand->gpu_count(1), 0);
    EXPECT_EQ(cand->gpu_count(99), 0);
    EXPECT_GE(cand->gpu_count(2), 1);
  }
}

TEST(Evolution, JobTableMatchesDirectComputation) {
  Fixture f;
  auto& r = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 4, 90.0);
  f.add_job(5, "GoogleNet", 25000, sched::JobStatus::Waiting, 0);
  f.add_job(3, "VGG16", 10000, sched::JobStatus::Completed, 8);
  f.add_job(2, "AlexNet", 30000, sched::JobStatus::Waiting, 2, 30.0);
  for (int e = 0; e < 4; ++e) f.limits_.on_epoch_complete(r);
  f.run_on(1, {0, 1}, 256);
  predict::ProgressPredictor predictor;
  const predict::ProgressPredictor* const predictors[] = {&predictor, nullptr};
  for (const predict::ProgressPredictor* p : predictors) {
    const auto ctx = f.context(p);
    const auto& active = f.state_.active_jobs();
    ASSERT_EQ(ctx.jobs.size(), active.size());
    ASSERT_EQ(ctx.by_arrival.size(), active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      EXPECT_EQ(ctx.jobs[ctx.by_arrival[i]].view, active[i]);
    }
    EXPECT_EQ(ctx.live_jobs, f.current_.running_jobs());
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
      const JobEntry& e = ctx.jobs[i];
      if (i > 0) {
        EXPECT_LT(ctx.jobs[i - 1].id, e.id);
      }
      EXPECT_EQ(e.id, e.view->spec.id);
      EXPECT_EQ(ctx.find(e.id), &e);
      EXPECT_EQ(e.limit, Evolution::effective_limit(*e.view, ctx));
      EXPECT_EQ(e.warm, f.limits_.warmed_up(*e.view));
      EXPECT_EQ(e.expected_remaining, p != nullptr ? p->expected_remaining_samples(*e.view)
                                                   : e.view->dataset_size());
    }
    EXPECT_EQ(ctx.find(3), nullptr);   // completed: not active
    EXPECT_EQ(ctx.find(42), nullptr);  // unknown
    EXPECT_THROW(ctx.entry(42), std::logic_error);
  }
}

TEST(Evolution, RefreshScalesDownBeyondLimit) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1);
  (void)v;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  // Way beyond the Start-policy limit (256): 8 workers x 512.
  for (int g = 0; g < 8; ++g) cand.place(g, 1, 512);
  evo.refresh(cand, ctx);
  const int r = evo.effective_limit(f.view(1), ctx);
  EXPECT_LE(cand.global_batch(1), r);
}

TEST(Evolution, NewJobsGetPreferentialAllocation) {
  Fixture f;
  // Cluster fully occupied by an old job; a brand-new job arrives.
  auto& old_job = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 5, 500.0);
  (void)old_job;
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, 0, 0.0);
  f.view(2).samples_processed = 0.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  for (int g = 0; g < f.topo_.total_gpus(); ++g) cand.place(g, 1, 64);
  evo.refresh(cand, ctx);
  EXPECT_GE(cand.gpu_count(2), 1) << "fresh job must be admitted (anti-starvation)";
}

TEST(Evolution, WarmupJobsLimitedToOneGpu) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 0);  // not warm
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  evo.refresh(cand, ctx);
  EXPECT_EQ(cand.gpu_count(1), 1);
}

TEST(Evolution, CrossoverPreservesSlotSources) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 2);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Running, 2);
  Evolution evo(EvolutionConfig{});
  cluster::Assignment a(8), b(8);
  for (int g = 0; g < 8; ++g) a.place(g, 1, 32);
  for (int g = 0; g < 8; ++g) b.place(g, 2, 16);
  auto [c1, c2] = evo.crossover(a, b);
  for (int g = 0; g < 8; ++g) {
    const auto s1 = c1.slot(g), s2 = c2.slot(g);
    // Each GPU's genes come one from each parent.
    EXPECT_TRUE((s1.job == 1 && s2.job == 2) || (s1.job == 2 && s2.job == 1));
  }
}

TEST(Evolution, MutationPreemptsSomeJobsAndRefills) {
  Fixture f;
  for (JobId j = 1; j <= 4; ++j) {
    f.add_job(j, "ResNet18", 20000, sched::JobStatus::Running, 2);
  }
  auto ctx = f.context();
  EvolutionConfig cfg;
  cfg.mutation_rate = 1.0;  // preempt everything
  Evolution evo(cfg);
  cluster::Assignment cand(f.topo_.total_gpus());
  for (int g = 0; g < 8; ++g) cand.place(g, 1 + g % 4, 64);
  const auto before = cand;
  evo.mutate(cand, ctx);
  EXPECT_EQ(cand.idle_count(), 0);  // refilled
  EXPECT_NE(cand, before);
}

TEST(Evolution, ReorderPacksWorkersContiguously) {
  cluster::Assignment scattered(8);
  scattered.place(0, 1, 32);
  scattered.place(3, 2, 16);
  scattered.place(5, 1, 32);
  scattered.place(7, 2, 16);
  const auto packed = Evolution::reorder(scattered);
  EXPECT_EQ(packed.gpus_of(1), (std::vector<GpuId>{0, 1}));
  EXPECT_EQ(packed.gpus_of(2), (std::vector<GpuId>{2, 3}));
  EXPECT_EQ(packed.global_batch(1), 64);
  EXPECT_EQ(packed.global_batch(2), 32);
}

TEST(Evolution, ReorderImprovesLocalityScore) {
  Fixture f;
  auto& v = f.add_job(1, "VGG16", 10000, sched::JobStatus::Running, 3);
  v.samples_processed = 30000.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment spread(f.topo_.total_gpus());
  spread.place(0, 1, 64);
  spread.place(4, 1, 64);  // crosses nodes
  const auto packed = Evolution::reorder(spread);
  const std::vector<double> rho{0.5};  // job 1, the only entry of ctx.jobs
  EXPECT_LT(evo.score(packed, ctx, rho), evo.score(spread, ctx, rho));
}

TEST(Evolution, RepairEnforcesMemoryAndEvenSplit) {
  Fixture f;
  f.add_job(1, "VGG16", 10000, sched::JobStatus::Running, 3);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  cand.place(0, 1, 100);
  cand.place(1, 1, 1);  // lopsided child from crossover
  evo.repair(cand, ctx);
  const auto gpus = cand.gpus_of(1);
  ASSERT_FALSE(gpus.empty());
  int lo = 1 << 30, hi = 0;
  for (GpuId g : gpus) {
    lo = std::min(lo, cand.slot(g).local_batch);
    hi = std::max(hi, cand.slot(g).local_batch);
    EXPECT_LE(cand.slot(g).local_batch, f.view(1).profile->max_local_batch);
  }
  EXPECT_LE(hi - lo, 1);  // even split
}

TEST(Evolution, EffectiveLimitCapsOneDoublingPerReconfig) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 6, 1.0);
  f.run_on(1, {0}, 256);
  // Pump the policy limit far above the live batch.
  for (int e = 0; e < 5; ++e) f.limits_.on_epoch_complete(v);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  EXPECT_GT(f.limits_.limit(v), 512);
  EXPECT_EQ(evo.effective_limit(v, ctx), 512);  // 2x live batch
}

TEST(Evolution, ScoreIsSrufUtilization) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 2);
  v.samples_processed = 40000.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  cand.place(0, 1, 256);
  const std::vector<double> rho{0.5};  // job 1, the only entry of ctx.jobs
  // Eq. 8: Y_proc * c / X * (1/rho - 1); plus switch surcharge because the
  // live assignment (empty) differs... job 1 is Running in view but absent
  // from live, so no switch penalty applies (it is charged as a resume).
  const double x = f.oracle_.estimate_placed_sps(v, cand.placement(1));
  const double expected = 40000.0 * 1.0 / x * (1.0 / 0.5 - 1.0);
  EXPECT_NEAR(evo.score(cand, ctx, rho), expected + 600.0 /*preempt: live had none*/,
              expected + 600.0);
  EXPECT_GT(evo.score(cand, ctx, rho), 0.0);
}

TEST(Evolution, ScorePrefersShorterRemaining) {
  Fixture f;
  auto& a = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 2);
  auto& b = f.add_job(2, "ResNet18", 20000, sched::JobStatus::Waiting, 2);
  a.samples_processed = 20000.0;
  b.samples_processed = 20000.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment run_a(f.topo_.total_gpus()), run_b(f.topo_.total_gpus());
  run_a.place(0, 1, 256);
  run_b.place(0, 2, 256);
  // Job 1 is nearly done (rho -> 1), job 2 barely started (rho small).
  const std::vector<double> rho{0.9, 0.1};  // ctx.jobs is {1, 2}
  EXPECT_LT(evo.score(run_a, ctx, rho), evo.score(run_b, ctx, rho));
}

TEST(Evolution, StepSelectsPopulationOfConfiguredSize) {
  Fixture f;
  for (JobId j = 1; j <= 3; ++j) f.add_job(j, "ResNet18", 20000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  EvolutionConfig cfg;
  cfg.population_size = 10;
  Evolution evo(cfg);
  evo.step(ctx);
  EXPECT_EQ(evo.population().size(), 10u);
  for (const auto& cand : evo.population()) {
    EXPECT_NO_THROW(cand.check_invariants());
    EXPECT_EQ(cand.idle_count(), 0);  // Eq. 4: saturate the cluster
  }
}

TEST(Evolution, StepImprovesOrMaintainsBestScore) {
  Fixture f;
  for (JobId j = 1; j <= 6; ++j) {
    auto& v = f.add_job(j, "ResNet18", 20000 + 1000 * j, sched::JobStatus::Waiting, 2);
    v.samples_processed = 10000.0 * static_cast<double>(j);
  }
  auto ctx = f.context();
  EvolutionConfig cfg;
  cfg.population_size = 8;
  Evolution evo(cfg);
  evo.ensure_population(ctx);
  const std::vector<double> rho = evo.mean_rho(ctx);
  double best0 = 1e300;
  for (const auto& cand : evo.population()) best0 = std::min(best0, evo.score(cand, ctx, rho));
  for (int i = 0; i < 5; ++i) evo.step(ctx);
  double best5 = 1e300;
  for (const auto& cand : evo.population()) best5 = std::min(best5, evo.score(cand, ctx, rho));
  EXPECT_LE(best5, best0 * 1.05);
}

TEST(Evolution, BestIsFeasibleAndSaturating) {
  Fixture f;
  for (JobId j = 1; j <= 4; ++j) f.add_job(j, "GoogleNet", 25000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  for (int i = 0; i < 3; ++i) evo.step(ctx);
  const auto best = evo.best(ctx);
  EXPECT_NO_THROW(best.check_invariants());
  EXPECT_EQ(best.idle_count(), 0);
  for (JobId j : best.running_jobs()) {
    EXPECT_LE(best.global_batch(j), evo.effective_limit(f.view(j), ctx));
  }
}

TEST(Evolution, SampleRhoWithoutPredictorIsHalf) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context(nullptr);
  Evolution evo(EvolutionConfig{});
  const auto rho = evo.sample_rho(ctx);
  ASSERT_EQ(rho.size(), 1u);
  EXPECT_DOUBLE_EQ(rho[0], 0.5);
}

TEST(Evolution, SampleRhoWithPredictorVariesMeanRhoDoesNot) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 5);
  v.samples_processed = 100000.0;
  predict::ProgressPredictor predictor;
  auto ctx = f.context(&predictor);
  Evolution evo(EvolutionConfig{});
  const auto s1 = evo.sample_rho(ctx);
  const auto s2 = evo.sample_rho(ctx);
  EXPECT_NE(s1.at(0), s2.at(0));  // stochastic draws
  const auto m1 = evo.mean_rho(ctx);
  const auto m2 = evo.mean_rho(ctx);
  EXPECT_DOUBLE_EQ(m1.at(0), m2.at(0));  // deterministic mean
}

TEST(Evolution, RhoColumnDrawsInArrivalOrder) {
  // Arrival order 3, 1, 2 differs from the table's JobId order: the draws
  // follow arrivals (the seeded sequence) and land at each job's table row.
  Fixture f;
  for (const int j : {3, 1, 2}) {
    auto& v = f.add_job(j, "ResNet18", 20000, sched::JobStatus::Running, 2 + j);
    v.samples_processed = 20000.0 * (2 + j);
  }
  predict::ProgressPredictor predictor;
  auto ctx = f.context(&predictor);
  EvolutionConfig cfg;
  cfg.seed = 7;
  Evolution evo(cfg);
  const std::vector<double> rho = evo.sample_rho(ctx);
  const std::vector<double> mean = evo.mean_rho(ctx);
  ASSERT_EQ(rho.size(), ctx.jobs.size());
  ASSERT_EQ(mean.size(), ctx.jobs.size());
  Rng rng(cfg.seed);
  for (const sched::JobView* v : f.state_.active_jobs()) {
    const auto dist = predictor.predict(*v);
    const auto i = static_cast<std::size_t>(ctx.find(v->spec.id) - ctx.jobs.data());
    EXPECT_EQ(rho[i], std::clamp(dist.sample(rng), 1e-3, 1.0 - 1e-3)) << "job " << v->spec.id;
    EXPECT_EQ(mean[i], std::clamp(dist.mean(), 1e-3, 1.0 - 1e-3)) << "job " << v->spec.id;
  }
}

/// FNV-1a-64 over the slot arrays of a set of genomes.
std::uint64_t slots_digest(std::uint64_t h, const cluster::Assignment& a) {
  const auto mix = [&](std::int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint64_t>(v >> (8 * byte)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  for (int g = 0; g < a.num_gpus(); ++g) {
    const cluster::Slot& s = a.slot(g);
    mix(s.job);
    mix(s.local_batch);
    mix(static_cast<std::int64_t>(s.health));
  }
  return h;
}

/// A trained progress predictor over three completed ResNet18 runs.
predict::ProgressPredictor trained_predictor() {
  predict::ProgressPredictor predictor;
  for (JobId j = 100; j < 103; ++j) {
    sched::JobView done;
    done.spec.id = j;
    done.spec.variant = {"ResNet18", "t", 20000, 10};
    done.profile = &model::profile_by_name("ResNet18");
    done.status = sched::JobStatus::Completed;
    done.init_loss = done.profile->init_loss;
    const int epochs = 20 + 3 * static_cast<int>(j - 100);
    for (int e = 1; e <= epochs; ++e) {
      done.epoch_log.push_back({10.0 * e, 20000.0 * e, 2.0 / e, 0.9 * e / epochs, 256});
    }
    done.epochs_completed = epochs;
    done.samples_processed = 20000.0 * epochs;
    predictor.observe_completed_job(done);
  }
  return predictor;
}

// Decision pin for the evolve step: 50 seeded generations plus the deployed
// winner on a fixed world (running, waiting and fresh jobs, a down GPU and a
// trained predictor). The digest covers every surviving genome, so any
// change to the operators' RNG draws, their order or the scores moves it.
// Re-pin only for an intended decision change, together with the golden
// quickstart digest in trace_test.cpp.
TEST(Evolution, StepDecisionsArePinned) {
  Fixture f(3);
  auto& r1 = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 3, 120.0);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, 2, 80.0);
  f.add_job(3, "VGG16", 10000, sched::JobStatus::Waiting, 1, 60.0);
  f.add_job(4, "AlexNet", 30000, sched::JobStatus::Waiting, 0, 0.0);
  f.add_job(5, "ResNet50", 15000, sched::JobStatus::Waiting, 4, 300.0);
  f.add_job(6, "VGG16-CIFAR", 20000, sched::JobStatus::Completed, 9, 500.0);
  for (int e = 0; e < 3; ++e) f.limits_.on_epoch_complete(r1);
  f.run_on(1, {0, 1}, 256);
  f.run_on(2, {4}, 128);
  f.current_.set_health(7, cluster::SlotHealth::Failed);

  const predict::ProgressPredictor predictor = trained_predictor();
  ASSERT_TRUE(predictor.trained());

  auto ctx = f.context(&predictor);
  EvolutionConfig cfg;
  cfg.seed = 2021;
  Evolution evo(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 50; ++i) evo.step(ctx);
  for (const auto& cand : evo.population()) h = slots_digest(h, cand);
  h = slots_digest(h, evo.best(ctx));
  EXPECT_EQ(h, 0x93dceeb44bd0c3c1ULL) << std::hex << "digest 0x" << h;
}

/// A 64-GPU world with three down GPUs and 24 active jobs: warm running
/// jobs (some multi-GPU), warm waiting jobs, cold jobs that ran once and
/// fresh jobs that never ran.
class Pin64 : public Fixture {
 public:
  Pin64() : Fixture(16) {
    const char* models[] = {"ResNet18", "GoogleNet", "VGG16-CIFAR", "AlexNet",
                            "ResNet50", "VGG16", "InceptionV3", "ResNet50-CIFAR"};
    for (JobId j = 1; j <= 24; ++j) {
      const int epochs = j % 6 == 0 ? 0 : static_cast<int>(j % 5);
      auto& v = add_job(j, models[j % 8], 10000 + 2500 * (j % 7), sched::JobStatus::Waiting,
                        epochs, 30.0 * epochs);
      for (int e = 0; e < epochs; ++e) limits_.on_epoch_complete(v);
    }
    run_on(1, {0, 1, 2, 3}, 512);
    run_on(2, {4, 5}, 256);
    run_on(3, {9}, 128);
    run_on(4, {12, 13}, 128);
    run_on(7, {20, 21, 22, 23}, 256);
    run_on(8, {30}, 64);
    run_on(9, {40, 41}, 256);
    current_.set_health(11, cluster::SlotHealth::Failed);
    current_.set_health(35, cluster::SlotHealth::Reclaimed);
    current_.set_health(50, cluster::SlotHealth::Failed);
  }
};

// Second decision pin, at the scale where per-candidate work dominates:
// 40 seeded generations on Pin64 with the cluster-sized population, then the
// deployed winner. Re-pin only for an intended decision change.
TEST(Evolution, StepDecisionsArePinnedAt64Gpus) {
  Pin64 f;
  const predict::ProgressPredictor predictor = trained_predictor();
  ASSERT_TRUE(predictor.trained());
  auto ctx = f.context(&predictor);
  EvolutionConfig cfg;
  cfg.seed = 1234;
  Evolution evo(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 40; ++i) evo.step(ctx);
  ASSERT_EQ(evo.population().size(), 64u);
  for (const auto& cand : evo.population()) h = slots_digest(h, cand);
  h = slots_digest(h, evo.best(ctx));
  EXPECT_EQ(h, 0xc10b8a05639a9ddeULL) << std::hex << "digest 0x" << h;
}


// ---------------- Fast paths vs. the full operators ----------------

/// Figure 10's packing, spelled out: each job's workers, jobs in
/// first-occurrence order, onto the healthy GPUs in ascending order.
cluster::Assignment reference_reorder(const cluster::Assignment& a) {
  std::vector<cluster::Slot> packed(static_cast<std::size_t>(a.num_gpus()));
  for (GpuId g = 0; g < a.num_gpus(); ++g) packed[static_cast<std::size_t>(g)].health = a.health(g);
  std::size_t next = 0;
  for (JobId j : a.running_jobs()) {
    for (GpuId g : a.gpus_of(j)) {
      while (next < packed.size() && !packed[next].healthy()) ++next;
      if (next == packed.size()) throw std::logic_error("more workers than healthy GPUs");
      packed[next].job = j;
      packed[next].local_batch = a.slot(g).local_batch;
      ++next;
    }
  }
  return cluster::Assignment::from_slots(std::move(packed));
}

/// A random genome over jobs 1..jobs on a cluster with a few down GPUs;
/// `workers_on_down` also leaves workers on GPUs that failed after placement.
cluster::Assignment random_candidate(Rng& rng, int gpus, int jobs, bool workers_on_down) {
  cluster::Assignment a(gpus);
  const double fill = rng.uniform(0.2, 1.0);
  for (GpuId g = 0; g < gpus; ++g) {
    if (rng.bernoulli(fill)) {
      a.place(g, rng.uniform_int(1, jobs), static_cast<int>(rng.uniform_int(1, 256)));
    }
  }
  for (auto k = rng.uniform_int(0, 3); k > 0; --k) {
    const auto g = static_cast<GpuId>(rng.uniform_int(0, gpus - 1));
    if (!workers_on_down) a.clear(g);
    a.set_health(g, rng.bernoulli(0.5) ? cluster::SlotHealth::Failed
                                       : cluster::SlotHealth::Reclaimed);
  }
  return a;
}

TEST(Evolution, PackedCheckNeverSkipsAChangingReorder) {
  Rng rng(17);
  int packed_seen = 0;
  for (int i = 0; i < 600; ++i) {
    const int gpus = i % 2 == 0 ? 16 : 64;
    const bool workers_on_down = i % 5 == 0;
    cluster::Assignment a = random_candidate(rng, gpus, 3 + i % 12, workers_on_down);
    // Every third candidate starts packed, and half of those get one slot
    // moved, so both verdicts are exercised near the boundary.
    if (i % 3 == 0 && !workers_on_down) {
      a = reference_reorder(a);
      if (rng.bernoulli(0.5) && a.idle_count() > 0 && !a.running_jobs().empty()) {
        const JobId j = a.running_jobs()[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(a.running_jobs().size()) - 1))];
        a.place(a.idle_gpus().back(), j, 8);
      }
    }
    std::optional<cluster::Assignment> want;
    try {
      want = reference_reorder(a);
    } catch (const std::logic_error&) {  // more workers than healthy GPUs
      EXPECT_FALSE(Evolution::is_packed(a));
      EXPECT_THROW(Evolution::reorder(a), std::logic_error);
      continue;
    }
    EXPECT_EQ(Evolution::is_packed(a), *want == a) << a.to_string();
    EXPECT_EQ(Evolution::reorder(a), *want) << a.to_string();
    packed_seen += Evolution::is_packed(a) ? 1 : 0;
  }
  EXPECT_GT(packed_seen, 50);
  EXPECT_LT(packed_seen, 550);
}

/// repair as one unconditional pass: evict completed and unknown jobs, trim
/// the rest to their target worker count and always re-split the batch.
void reference_repair(cluster::Assignment& a, const EvolutionContext& ctx) {
  const std::vector<JobId> running = a.running_jobs();
  for (JobId j : running) {
    const JobEntry* e = ctx.find(j);
    if (e == nullptr || e->view->status == sched::JobStatus::Completed) {
      a.evict(j);
      continue;
    }
    std::vector<GpuId> gpus = a.gpus_of(j);
    const int target = std::max(1, std::min(e->warm ? static_cast<int>(gpus.size()) : 1, e->limit));
    while (static_cast<int>(gpus.size()) > target) {
      a.clear(gpus.back());
      gpus.pop_back();
    }
    const int max_b = std::min(e->limit, target * e->view->profile->max_local_batch);
    sched::place_job_even(a, j, gpus, std::clamp(a.global_batch(j), target, max_b));
  }
}

TEST(Evolution, RepairEarlyOutMatchesFullResplit) {
  Pin64 f;
  f.add_job(30, "VGG16", 10000, sched::JobStatus::Completed, 9, 500.0);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  Rng rng(23);
  int unchanged = 0;
  for (int i = 0; i < 300; ++i) {
    // Jobs 1..31 cover warm, cold and fresh jobs, the completed job 30 and
    // the unknown job 31.
    cluster::Assignment a = random_candidate(rng, f.topo_.total_gpus(), 31, false);
    if (i % 2 == 1) reference_repair(a, ctx);  // already repaired: all early-outs
    cluster::Assignment want = a;
    reference_repair(want, ctx);
    unchanged += want == a ? 1 : 0;
    evo.repair(a, ctx);
    ASSERT_EQ(a, want) << "candidate " << i;
    ASSERT_NO_THROW(a.audit_indexes());
  }
  EXPECT_GE(unchanged, 150);
}

TEST(Evolution, DeduplicatedScoresEqualDirectScores) {
  Pin64 f;
  const predict::ProgressPredictor predictor = trained_predictor();
  auto ctx = f.context(&predictor);
  EvolutionConfig cfg;
  cfg.seed = 5;
  Evolution evo(cfg);
  for (int i = 0; i < 3; ++i) evo.step(ctx);
  // The population plus repeats of some of its members, interleaved.
  std::vector<cluster::Assignment> cands = evo.population();
  for (std::size_t i = 0; i < evo.population().size(); i += 3) cands.push_back(evo.population()[i]);
  const std::vector<double> rho = evo.sample_rho(ctx);
  std::size_t scored = 0;
  const std::vector<double> scores = evo.score_all(cands, ctx, rho, &scored);
  std::set<std::uint64_t> distinct;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(scores[i], evo.score(cands[i], ctx, rho)) << "candidate " << i;
    distinct.insert(slots_digest(0xcbf29ce484222325ULL, cands[i]));
  }
  EXPECT_EQ(scored, distinct.size());
  EXPECT_LT(scored, cands.size());
}

TEST(Evolution, ScoredCandidatesCounterCountsDistinctCandidates) {
  Pin64 f;
  const predict::ProgressPredictor predictor = trained_predictor();
  auto ctx = f.context(&predictor);
  EvolutionConfig cfg;
  cfg.seed = 1234;
  Evolution evo(cfg);
  telemetry::MetricsRegistry metrics;
  evo.set_metrics(&metrics);
  const int steps = 10;
  for (int i = 0; i < steps; ++i) evo.step(ctx);
  // Per step: K refreshed members, the incumbent, 2K crossover children and
  // K mutants, with K = 64 (the cluster size).
  const double candidates = steps * (64.0 + 1.0 + 2 * 64.0 + 64.0);
  const double scored = metrics.counter("ones_candidates_scored_total").value();
  EXPECT_GT(scored, 0.0);
  EXPECT_LT(scored, candidates);
  // The operator counters still count every call.
  EXPECT_EQ(metrics.counter("ones_reorders_total").value(), steps * (64.0 + 2 * 64.0 + 64.0));
  EXPECT_EQ(metrics.counter("ones_crossovers_total").value(), steps * 64.0);
  EXPECT_EQ(metrics.counter("ones_mutations_total").value(), steps * 64.0);
}

}  // namespace
}  // namespace ones::core
