// Tests for the src/energy subsystem (DESIGN.md §10): PowerModel purity and
// bounds, EnergyMeter conservation invariants (cluster == sum of jobs +
// overhead == sum of nodes), the meter's agreement with the exported
// `cluster_watts` timeline (joules are the exact integral of the published
// step function), the §9 observability contract (instrumented == plain), and
// the λ=0 guarantee that the power model is purely observational.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/ones_scheduler.hpp"
#include "energy/meter.hpp"
#include "energy/power_model.hpp"
#include "model/task.hpp"
#include "sched/fifo.hpp"
#include "sched/powercap.hpp"
#include "sched/simulation.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"

namespace ones::energy {
namespace {

sched::SimulationConfig sim_config(int nodes = 2) {
  sched::SimulationConfig c;
  c.topology.num_nodes = nodes;
  return c;
}

workload::TraceConfig trace_config(int jobs, double interarrival,
                                   std::uint64_t seed = 33) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

model::TaskProfile test_profile() {
  model::TaskProfile p = model::builtin_profiles().front();
  return p;
}

cluster::LinkProfile fast_link() { return {130.0e9, 5e-6}; }

TEST(PowerModel, RejectsMalformedConfig) {
  PowerConfig bad;
  bad.gpu_busy_w = 10.0;  // below idle
  EXPECT_THROW(PowerModel{bad}, std::logic_error);
  bad = PowerConfig{};
  bad.comm_power_fraction = 1.5;
  EXPECT_THROW(PowerModel{bad}, std::logic_error);
  bad = PowerConfig{};
  bad.node_base_w = -1.0;
  EXPECT_THROW(PowerModel{bad}, std::logic_error);
}

TEST(PowerModel, WorkerWattsStayWithinIdleBusyRange) {
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  for (int b : {1, 8, 64, profile.max_local_batch}) {
    const std::vector<int> batches(4, b);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const double w = pm.worker_watts(profile, batches, i, fast_link());
      EXPECT_GE(w, pm.config().gpu_idle_w);
      EXPECT_LE(w, pm.config().gpu_busy_w);
    }
  }
}

TEST(PowerModel, LargerBatchDrawsMoreOnACommBoundWorker) {
  // On a slow link the step is comm-bound, so a bigger local batch raises
  // the compute fraction u and with it the draw.
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  const cluster::LinkProfile slow{1.0e9, 2.5e-5};
  const double w_small =
      pm.worker_watts(profile, std::vector<int>(4, 4), 0, slow);
  const double w_large =
      pm.worker_watts(profile, std::vector<int>(4, profile.max_local_batch), 0, slow);
  EXPECT_LT(w_small, w_large);
}

TEST(PowerModel, JobWattsIsSumOfWorkerWatts) {
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  const std::vector<int> batches{16, 16, 32, 8};
  double sum = 0.0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    sum += pm.worker_watts(profile, batches, i, fast_link());
  }
  EXPECT_DOUBLE_EQ(pm.job_watts(profile, batches, fast_link()), sum);
}

TEST(PowerModel, EvenSplitMatchesExplicitBatches) {
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  // 64 over 4 workers -> {16, 16, 16, 16}.
  EXPECT_DOUBLE_EQ(pm.job_watts_even(profile, 64, 4, fast_link()),
                   pm.job_watts(profile, std::vector<int>(4, 16), fast_link()));
}

/// Integrate a right-continuous step function given as (t, value) change
/// points (t non-decreasing) from t=0 to `until`.
double integrate_step_function(const std::vector<std::pair<double, double>>& points,
                               double until) {
  double joules = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double t0 = points[i].first;
    const double t1 = i + 1 < points.size() ? points[i + 1].first : until;
    joules += points[i].second * (t1 - t0);
  }
  return joules;
}

TEST(EnergyMeter, ClusterJoulesEqualIntegralOfPublishedWattsTimeline) {
  core::OnesScheduler ones_sched;
  telemetry::MetricsRegistry registry;
  auto config = sim_config();
  config.metrics = &registry;
  sched::ClusterSimulation sim(config, workload::generate_trace(trace_config(10, 15)),
                               ones_sched);
  sim.run();
  ASSERT_TRUE(sim.all_completed());

  const auto id = registry.timeline().series("cluster_watts");
  std::vector<std::pair<double, double>> watts;
  for (const auto& p : registry.timeline().points()) {
    if (p.series == id) watts.emplace_back(p.t, p.value);
  }
  ASSERT_FALSE(watts.empty());
  EXPECT_EQ(watts.front().first, 0.0);  // metering starts at t=0

  const double integral =
      integrate_step_function(watts, sim.energy().metered_until());
  const double measured = sim.energy().cluster_joules();
  EXPECT_GT(measured, 0.0);
  // Same mathematical integral, different floating-point grouping (the meter
  // accumulates every assignment interval; the timeline collapses unchanged
  // values), hence a relative tolerance instead of exact equality.
  EXPECT_NEAR(integral, measured, 1e-9 * measured);
}

TEST(EnergyMeter, JobPlusOverheadAndNodeDecompositionsBothSumToCluster) {
  core::OnesScheduler ones_sched;
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(trace_config(12, 12)),
                               ones_sched);
  sim.run();
  ASSERT_TRUE(sim.all_completed());
  const EnergyMeter& meter = sim.energy();

  double by_job = meter.overhead_joules();
  for (const auto& [job, joules] : meter.joules_by_job()) {
    EXPECT_GT(joules, 0.0) << "job " << job;
    EXPECT_DOUBLE_EQ(meter.job_joules(job), joules);
    by_job += joules;
  }
  double by_node = 0.0;
  for (const double joules : meter.joules_by_node()) by_node += joules;

  const double cluster = meter.cluster_joules();
  EXPECT_GT(cluster, 0.0);
  EXPECT_GT(meter.overhead_joules(), 0.0);  // node base power alone ensures this
  EXPECT_NEAR(by_job, cluster, 1e-9 * cluster);
  EXPECT_NEAR(by_node, cluster, 1e-9 * cluster);
  // Jobs that never existed are billed nothing.
  EXPECT_DOUBLE_EQ(meter.job_joules(JobId{999999}), 0.0);
}

/// The meter's billing with nothing cached: every call reprices every placed
/// job, then sums node watts in running_jobs() order and cluster watts in
/// JobId order, as the meter promises to.
struct RepricingMeter {
  RepricingMeter(const PowerModel& m, const cluster::Topology& t,
                 EnergyMeter::ProfileLookup lookup)
      : model(m), topo(t), profile_of(std::move(lookup)) {
    on_assignment(cluster::Assignment(topo.total_gpus()), 0.0);  // all idle at t=0
  }

  const PowerModel& model;
  const cluster::Topology& topo;
  EnergyMeter::ProfileLookup profile_of;
  double last_t = 0.0;
  double cluster_w = 0.0;
  double overhead_w = 0.0;
  std::map<JobId, double> job_w;
  std::vector<double> node_w = std::vector<double>(static_cast<std::size_t>(topo.num_nodes()));
  double cluster_j = 0.0;
  double overhead_j = 0.0;
  std::map<JobId, double> job_j;
  std::vector<double> node_j = std::vector<double>(static_cast<std::size_t>(topo.num_nodes()));

  void on_assignment(const cluster::Assignment& next, double now) {
    const double dt = now - last_t;
    if (dt > 0.0) {
      cluster_j += cluster_w * dt;
      overhead_j += overhead_w * dt;
      for (const auto& [job, w] : job_w) job_j[job] += w * dt;
      for (std::size_t n = 0; n < node_w.size(); ++n) node_j[n] += node_w[n] * dt;
    }
    last_t = now;
    job_w.clear();
    node_w.assign(node_w.size(), model.node_base_watts());
    overhead_w = model.node_base_watts() * static_cast<double>(topo.num_nodes());
    for (const JobId job : next.running_jobs()) {
      const std::vector<GpuId> gpus = next.gpus_of(job);
      std::vector<int> batches;
      for (const GpuId g : gpus) batches.push_back(next.slot(g).local_batch);
      const cluster::LinkProfile link = topo.link_profile(gpus);
      double w_job = 0.0;
      for (std::size_t i = 0; i < gpus.size(); ++i) {
        const double w = model.worker_watts(*profile_of(job), batches, i, link);
        node_w[static_cast<std::size_t>(topo.node_of(gpus[i]))] += w;
        w_job += w;
      }
      job_w.emplace(job, w_job);
    }
    for (const GpuId g : next.idle_gpus()) {
      node_w[static_cast<std::size_t>(topo.node_of(g))] += model.idle_gpu_watts();
      overhead_w += model.idle_gpu_watts();
    }
    cluster_w = overhead_w;
    for (const auto& [job, w] : job_w) cluster_w += w;
  }
};

// The meter reprices only the jobs whose GPUs or local batches moved and re-
// sums only the nodes they (or a health change) touch; its watts and joules
// must still equal, exactly, a meter that reprices every job on every call,
// over seeded sequences of batch-only changes, GPU moves that keep the
// batches, placements, evictions, GPU faults and repeated calls at one
// sim-time. Two cases reorder a node's sum without repricing every job on
// it: a two-node job whose lowest GPU moves to another node while another
// job shares the node it keeps (the node's jobs sort by cluster-wide lowest
// GPU), and an occupied GPU that goes down with its worker still placed.
TEST(EnergyMeter, CachedDrawsBillExactlyLikeFullRepricing) {
  cluster::TopologyConfig tc;
  tc.num_nodes = 4;
  tc.gpus_per_node = 4;
  const cluster::Topology topo(tc);
  const PowerModel pm{PowerConfig{}};
  const auto& profiles = model::builtin_profiles();
  const auto profile_of = [&](JobId job) {
    return &profiles[static_cast<std::size_t>(job) % profiles.size()];
  };
  enum Op { Rebatch, Move, Place, Evict, Fault, MoveFront, DownBusy, kOps };
  std::vector<int> seen(kOps, 0);
  int same_time_calls = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EnergyMeter meter(pm, topo, profile_of);
    RepricingMeter ref(pm, topo, profile_of);
    cluster::Assignment a(topo.total_gpus());
    double now = 0.0;
    JobId next_job = 1;
    const auto batch_of = [&](JobId job) {
      return static_cast<int>(rng.uniform_int(1, profile_of(job)->max_local_batch));
    };
    for (int step = 0; step < 400; ++step) {
      const auto op = static_cast<Op>(rng.uniform_int(0, kOps - 1));
      const std::vector<JobId> running = a.running_jobs();
      const std::vector<GpuId> idle = a.idle_gpus();
      if (op == Rebatch && !running.empty()) {
        const JobId job = running[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
        const auto gpus = a.gpus_of(job);
        a.set_local_batch(gpus[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(gpus.size()) - 1))],
                          batch_of(job));
        ++seen[op];
      } else if (op == Move && !running.empty() && !idle.empty()) {
        const JobId job = running.front();
        const GpuId from = a.gpus_of(job).back();
        const GpuId to = idle[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(idle.size()) - 1))];
        const int batch = a.slot(from).local_batch;
        a.clear(from);
        a.place(to, job, batch);
        ++seen[op];
      } else if (op == Place && !idle.empty()) {
        const JobId job = next_job++;
        const auto workers = rng.uniform_int(1, std::min<std::int64_t>(6, static_cast<std::int64_t>(idle.size())));
        std::vector<GpuId> pool = idle;
        rng.shuffle(pool);
        for (std::int64_t w = 0; w < workers; ++w) {
          a.place(pool[static_cast<std::size_t>(w)], job, batch_of(job));
        }
        ++seen[op];
      } else if (op == Evict && !running.empty()) {
        a.evict(running[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))]);
        ++seen[op];
      } else if (op == Fault) {
        const std::vector<GpuId> down = a.unhealthy_gpus();
        if (!down.empty() && rng.bernoulli(0.6)) {
          a.set_health(down[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(down.size()) - 1))],
                       cluster::SlotHealth::Healthy);
        } else {
          const auto g = static_cast<GpuId>(rng.uniform_int(0, topo.total_gpus() - 1));
          a.clear(g);  // ClusterSimulation routes a down GPU's worker into recovery
          a.set_health(g, cluster::SlotHealth::Failed);
        }
        ++seen[op];
      } else if (op == MoveFront) {
        // A job on >= 2 nodes, another job on a node it keeps, and an idle
        // GPU off its lowest GPU's node.
        for (const JobId job : running) {
          const auto gpus = a.gpus_of(job);
          const NodeId front_node = topo.node_of(gpus.front());
          const bool shares_kept_node = std::any_of(gpus.begin() + 1, gpus.end(), [&](GpuId g) {
            const NodeId n = topo.node_of(g);
            if (n == front_node) return false;
            for (GpuId h = n * tc.gpus_per_node; h < (n + 1) * tc.gpus_per_node; ++h) {
              if (a.slot(h).occupied() && a.slot(h).job != job) return true;
            }
            return false;
          });
          const auto to = std::find_if(idle.begin(), idle.end(),
                                       [&](GpuId g) { return topo.node_of(g) != front_node; });
          if (!shares_kept_node || to == idle.end()) continue;
          const int batch = a.slot(gpus.front()).local_batch;
          a.clear(gpus.front());
          a.place(*to, job, batch);
          ++seen[op];
          break;
        }
      } else if (op == DownBusy && !running.empty()) {
        const JobId job = running[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
        for (const GpuId g : a.worker_gpus(job)) {
          if (!a.slot(g).healthy()) continue;
          a.set_health(g, cluster::SlotHealth::Failed);  // its worker stays placed
          ++seen[op];
          break;
        }
      }
      if (rng.bernoulli(0.3)) {
        ++same_time_calls;
      } else {
        now += rng.uniform(1.0, 100.0);
      }
      meter.on_assignment(a, now);
      ref.on_assignment(a, now);
      if (rng.bernoulli(0.1)) {  // an unchanged assignment, again at `now`
        meter.on_assignment(a, now);
        ref.on_assignment(a, now);
      }
      ASSERT_NO_THROW(meter.audit(a));
      ASSERT_EQ(meter.cluster_watts(), ref.cluster_w) << "step " << step;
      ASSERT_EQ(meter.watts_by_node(), ref.node_w) << "step " << step;
      for (JobId job = 1; job < next_job; ++job) {
        const auto it = ref.job_w.find(job);
        ASSERT_EQ(meter.job_watts(job), it == ref.job_w.end() ? 0.0 : it->second)
            << "step " << step << " job " << job;
      }
      ASSERT_EQ(meter.cluster_joules(), ref.cluster_j) << "step " << step;
      ASSERT_EQ(meter.overhead_joules(), ref.overhead_j) << "step " << step;
      ASSERT_EQ(meter.joules_by_node(), ref.node_j) << "step " << step;
      ASSERT_EQ(meter.joules_by_job(), ref.job_j) << "step " << step;
    }

    // A job placed and evicted within one sim-time is never billed.
    const JobId ghost = next_job++;
    if (a.idle_gpus().empty()) a.evict(a.running_jobs().front());
    a.place(a.idle_gpus().front(), ghost, 1);
    meter.on_assignment(a, now);
    a.evict(ghost);
    meter.on_assignment(a, now);
    meter.finalize(now + 10.0);
    EXPECT_EQ(meter.joules_by_job().count(ghost), 0u);
    EXPECT_EQ(meter.job_joules(ghost), 0.0);
  }
  for (int op = 0; op < kOps; ++op) EXPECT_GT(seen[static_cast<std::size_t>(op)], 20) << op;
  EXPECT_GT(same_time_calls, 100);
}

TEST(EnergyMeter, AttachingARegistryDoesNotChangeJoules) {
  const auto trace = workload::generate_trace(trace_config(10, 15));

  sched::FifoScheduler plain_sched;
  sched::ClusterSimulation plain(sim_config(), trace, plain_sched);
  plain.run();

  telemetry::MetricsRegistry registry;
  auto config = sim_config();
  config.metrics = &registry;
  sched::FifoScheduler instrumented_sched;
  sched::ClusterSimulation instrumented(config, trace, instrumented_sched);
  instrumented.run();

  // Bit-identical: instrumentation must never perturb the integral.
  EXPECT_EQ(plain.energy().cluster_joules(), instrumented.energy().cluster_joules());
  EXPECT_EQ(plain.energy().overhead_joules(),
            instrumented.energy().overhead_joules());
  EXPECT_EQ(plain.energy().joules_by_job(), instrumented.energy().joules_by_job());

  // The registry's monotone counters agree with the meter's totals (same
  // deltas accumulated in the same order -> exactly equal).
  EXPECT_DOUBLE_EQ(registry.counter_value("energy_cluster_joules_total"),
                   instrumented.energy().cluster_joules());
  EXPECT_DOUBLE_EQ(registry.counter_value("energy_overhead_joules_total"),
                   instrumented.energy().overhead_joules());
}

TEST(EnergyMeter, LambdaZeroDecisionsAreIndependentOfPowerConstants) {
  // With lambda_energy = 0 the power model is purely observational: changing
  // the electrical constants rescales joules but must not move a single
  // scheduling decision (the golden-trace digest in trace_test.cpp pins the
  // same guarantee for the default constants).
  const auto trace = workload::generate_trace(trace_config(10, 12));

  core::OnesScheduler sched_a;
  sched::ClusterSimulation sim_a(sim_config(), trace, sched_a);
  sim_a.run();

  auto config = sim_config();
  config.power.gpu_idle_w = 10.0;
  config.power.gpu_busy_w = 700.0;
  config.power.node_base_w = 50.0;
  config.power.comm_power_fraction = 0.9;
  core::OnesScheduler sched_b;
  sched::ClusterSimulation sim_b(config, trace, sched_b);
  sim_b.run();

  EXPECT_EQ(sim_a.metrics().jct_by_job(), sim_b.metrics().jct_by_job());
  EXPECT_EQ(sim_a.metrics().makespan(), sim_b.metrics().makespan());
  EXPECT_NE(sim_a.energy().cluster_joules(), sim_b.energy().cluster_joules());
}

TEST(EnergyMeter, LambdaBlendChangesOnesDecisions) {
  // Sanity check that the fitness blend is actually wired through: a large
  // lambda_energy must be able to move at least one decision on a trace
  // where candidates differ in predicted draw.
  const auto trace = workload::generate_trace(trace_config(16, 8));

  core::OnesScheduler plain;
  sched::ClusterSimulation sim_plain(sim_config(), trace, plain);
  sim_plain.run();

  core::OnesConfig cfg;
  cfg.evolution.lambda_energy = 8.0;
  core::OnesScheduler blended(cfg);
  sched::ClusterSimulation sim_blended(sim_config(), trace, blended);
  sim_blended.run();

  EXPECT_TRUE(sim_plain.all_completed());
  EXPECT_TRUE(sim_blended.all_completed());
  EXPECT_NE(sim_plain.metrics().jct_by_job(), sim_blended.metrics().jct_by_job());
}

TEST(PowerCapScheduler, CompletesAllJobsUnderTheCap) {
  sched::PowerCapScheduler capped;
  telemetry::MetricsRegistry registry;
  auto config = sim_config();
  config.metrics = &registry;
  sched::ClusterSimulation sim(config, workload::generate_trace(trace_config(12, 10)),
                               capped);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_EQ(capped.name(), "PowerCap");
  EXPECT_GT(sim.energy().cluster_joules(), 0.0);
}

}  // namespace
}  // namespace ones::energy
