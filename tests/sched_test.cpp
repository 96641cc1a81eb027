// Unit tests for src/sched: throughput oracle, placement helper, the
// simulation driver contract, and the FIFO / SRTF / Tiresias / Optimus
// baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ones_scheduler.hpp"
#include "drl/drl_scheduler.hpp"
#include "model/throughput.hpp"
#include "sched/fifo.hpp"
#include "sched/optimus.hpp"
#include "sched/oracle.hpp"
#include "sched/placement.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"

namespace ones::sched {
namespace {

cluster::Topology small_topology() {
  cluster::TopologyConfig c;
  c.num_nodes = 2;
  c.gpus_per_node = 4;
  return cluster::Topology(c);
}

JobView make_view(JobId id, const char* model, std::int64_t dataset) {
  JobView v;
  v.spec.id = id;
  v.spec.variant = {model, "test", dataset, 10};
  v.spec.requested_gpus = 2;
  v.profile = &model::profile_by_name(model);
  v.spec.requested_batch = std::min(v.profile->b_ref, v.profile->max_local_batch) * 2;
  v.init_loss = v.profile->init_loss;
  return v;
}

TEST(Oracle, ColocatedBeatsCrossNodeForCommHeavyJobs) {
  const auto topo = small_topology();
  ThroughputOracle oracle(topo);
  const auto v = make_view(1, "VGG16", 10000);  // 552 MB all-reduce
  const double x_intra = oracle.estimate_sps(v, 4, 512, true);
  const double x_inter = oracle.estimate_sps(v, 4, 512, false);
  EXPECT_GT(x_intra, x_inter);
}

TEST(Oracle, PlacedEstimateUsesActualLink) {
  const auto topo = small_topology();
  ThroughputOracle oracle(topo);
  const auto v = make_view(1, "VGG16", 10000);
  cluster::Assignment colocated(topo.total_gpus()), spread(topo.total_gpus());
  colocated.place(0, 1, 128);
  colocated.place(1, 1, 128);
  spread.place(0, 1, 128);
  spread.place(4, 1, 128);  // second node
  EXPECT_GT(oracle.estimate_placed_sps(v, colocated.placement(1)),
            oracle.estimate_placed_sps(v, spread.placement(1)));
}

TEST(Oracle, NoiseIsDeterministicPerConfiguration) {
  const auto topo = small_topology();
  OracleConfig c;
  c.noise_sigma = 0.2;
  ThroughputOracle oracle(topo, c);
  const auto v = make_view(1, "ResNet18", 20000);
  EXPECT_DOUBLE_EQ(oracle.estimate_sps(v, 2, 512, true),
                   oracle.estimate_sps(v, 2, 512, true));
  EXPECT_NE(oracle.estimate_sps(v, 2, 512, true), oracle.estimate_sps(v, 4, 512, true));
}

// The placed estimate reads its inputs off the assignment's job index; it
// must equal the throughput model over the explicit batch vector and GPU
// list bit for bit, with and without profiling noise.
TEST(Oracle, PlacedEstimateMatchesBatchVectorModel) {
  cluster::TopologyConfig tc;
  tc.num_nodes = 4;
  tc.gpus_per_node = 4;
  const cluster::Topology topo(tc);
  const char* models[] = {"ResNet18", "VGG16", "GoogleNet", "ResNet50"};
  for (const double sigma : {0.0, 0.3}) {
    OracleConfig c;
    c.noise_sigma = sigma;
    const ThroughputOracle oracle(topo, c);
    Rng rng(20210415);
    int one_node = 0, multi_node = 0;
    for (int trial = 0; trial < 400; ++trial) {
      cluster::Assignment a(topo.total_gpus());
      for (int d = 0; d < 2; ++d) {
        a.set_health(static_cast<GpuId>(rng.uniform_int(0, topo.total_gpus() - 1)),
                     cluster::SlotHealth::Failed);
      }
      a.place(a.idle_gpus().front(), 99, 16);  // a bystander job
      const auto v = make_view(trial % 4 + 1, models[trial % 4], 20000);
      // Even trials stay on one random node, odd ones draw cluster-wide.
      std::vector<GpuId> pool = a.idle_gpus();
      if (trial % 2 == 0) {
        const auto node = static_cast<NodeId>(rng.uniform_int(0, tc.num_nodes - 1));
        std::erase_if(pool, [&](GpuId g) { return topo.node_of(g) != node; });
        if (pool.empty()) continue;
      }
      rng.shuffle(pool);
      const auto workers = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(pool.size())));
      for (std::size_t w = 0; w < workers; ++w) {
        a.place(pool[w], v.spec.id,
                static_cast<int>(rng.uniform_int(1, v.profile->max_local_batch)));
      }

      const auto gpus = a.gpus_of(v.spec.id);
      std::vector<int> batches;
      for (GpuId g : gpus) batches.push_back(a.slot(g).local_batch);
      const cluster::LinkProfile link = topo.link_profile(gpus);
      (link.bandwidth_Bps == tc.intra_node_bw_Bps ? one_node : multi_node) += 1;
      const double expected =
          model::throughput_sps(*v.profile, batches, link) *
          oracle.noise_factor(v.spec.id, static_cast<int>(gpus.size()),
                              a.global_batch(v.spec.id));
      EXPECT_EQ(oracle.estimate_placed_sps(v, a.placement(v.spec.id)), expected)
          << a.to_string();
    }
    EXPECT_GT(one_node, 50);
    EXPECT_GT(multi_node, 50);
  }
}

TEST(Oracle, CanColocateMatchesNodeSize) {
  const auto topo = small_topology();
  ThroughputOracle oracle(topo);
  EXPECT_TRUE(oracle.can_colocate(4));
  EXPECT_FALSE(oracle.can_colocate(5));
}

TEST(Placement, PrefersSingleNodeBestFit) {
  const auto topo = small_topology();
  cluster::Assignment a(topo.total_gpus());
  // Node 0 has 2 free (GPUs 2,3), node 1 has 4 free.
  a.place(0, 9, 8);
  a.place(1, 9, 8);
  const auto two = pick_idle_gpus(a, topo, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(topo.node_of(two[0]), 0);  // best fit: the tighter node
  EXPECT_EQ(topo.node_of(two[1]), 0);
}

TEST(Placement, SpillsAcrossNodesWhenNeeded) {
  const auto topo = small_topology();
  cluster::Assignment a(topo.total_gpus());
  a.place(0, 9, 8);  // 3 free on node 0, 4 free on node 1
  const auto six = pick_idle_gpus(a, topo, 6);
  ASSERT_EQ(six.size(), 6u);
}

TEST(Placement, ReturnsEmptyWhenInsufficient) {
  const auto topo = small_topology();
  cluster::Assignment a(topo.total_gpus());
  for (int g = 0; g < 7; ++g) a.place(g, 9, 8);
  EXPECT_TRUE(pick_idle_gpus(a, topo, 2).empty());
}

/// pick_idle_gpus as it was first written: one free-GPU list per node, a
/// best-fit scan over them, and a spill over every node id sorted by free
/// count with std::sort.
std::vector<GpuId> reference_pick_idle_gpus(const cluster::Assignment& assignment,
                                            const cluster::Topology& topology, int count) {
  if (assignment.idle_count() < count) return {};
  std::vector<std::vector<GpuId>> free_by_node(static_cast<std::size_t>(topology.num_nodes()));
  for (GpuId g : assignment.idle_gpus()) {
    free_by_node[static_cast<std::size_t>(topology.node_of(g))].push_back(g);
  }
  int best_node = -1;
  for (int n = 0; n < topology.num_nodes(); ++n) {
    const auto free = free_by_node[static_cast<std::size_t>(n)].size();
    if (free >= static_cast<std::size_t>(count) &&
        (best_node < 0 || free < free_by_node[static_cast<std::size_t>(best_node)].size())) {
      best_node = n;
    }
  }
  std::vector<GpuId> out;
  if (best_node >= 0) {
    const auto& pool = free_by_node[static_cast<std::size_t>(best_node)];
    out.assign(pool.begin(), pool.begin() + count);
    return out;
  }
  std::vector<int> order(static_cast<std::size_t>(topology.num_nodes()));
  for (int n = 0; n < topology.num_nodes(); ++n) order[static_cast<std::size_t>(n)] = n;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return free_by_node[static_cast<std::size_t>(a)].size() >
           free_by_node[static_cast<std::size_t>(b)].size();
  });
  for (int n : order) {
    for (GpuId g : free_by_node[static_cast<std::size_t>(n)]) {
      if (static_cast<int>(out.size()) == count) return out;
      out.push_back(g);
    }
  }
  return out;
}

// The run-scanning pick_idle_gpus must choose exactly the GPUs of the
// per-node-list reference, over seeded idle sets with down GPUs, on clusters
// large enough (past std::sort's insertion-sort cutoff) that spill ties
// between equally free nodes are broken by the sort itself.
TEST(PickIdleGpus, EqualsReference) {
  int best_fits = 0;
  int spills = 0;
  int too_few = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    cluster::TopologyConfig tc;
    tc.num_nodes = static_cast<int>(rng.uniform_int(1, 40));
    tc.gpus_per_node = static_cast<int>(rng.uniform_int(1, 8));
    const cluster::Topology topo(tc);
    cluster::Assignment a(topo.total_gpus());
    const double busy = rng.uniform(0.0, 1.0);
    for (GpuId g = 0; g < topo.total_gpus(); ++g) {
      if (rng.bernoulli(0.1)) {
        a.set_health(g, cluster::SlotHealth::Failed);
      } else if (rng.bernoulli(busy)) {
        a.place(g, 1, 8);
      }
    }
    for (int count = 1; count <= 2 * tc.gpus_per_node + 2; ++count) {
      const auto want = reference_pick_idle_gpus(a, topo, count);
      EXPECT_EQ(pick_idle_gpus(a, topo, count), want) << "count " << count;
      if (want.empty()) {
        ++too_few;
      } else if (topo.node_of(want.front()) == topo.node_of(want.back())) {
        ++best_fits;
      } else {
        ++spills;
      }
    }
  }
  EXPECT_GT(best_fits, 100);
  EXPECT_GT(spills, 100);
  EXPECT_GT(too_few, 100);
}

TEST(ClusterState, AddJobAndRetireKeepTheListsInStep) {
  // JobIds out of arrival order, plus one view that arrives Completed.
  std::vector<JobView> views = {make_view(7, "ResNet18", 1000), make_view(2, "ResNet18", 1000),
                                make_view(9, "ResNet18", 1000), make_view(4, "ResNet18", 1000)};
  views[2].status = JobStatus::Completed;
  views[3].status = JobStatus::Running;
  ClusterState state;
  for (const JobView& v : views) state.add_job(&v);
  using Views = std::vector<const JobView*>;

  for (const JobView& v : views) EXPECT_EQ(state.job(v.spec.id), &v);
  EXPECT_EQ(state.job(5), nullptr);
  EXPECT_EQ(state.job(10), nullptr);
  EXPECT_EQ(state.jobs(), (Views{&views[0], &views[1], &views[2], &views[3]}));
  EXPECT_EQ(state.jobs_by_id(), (Views{&views[1], &views[3], &views[0], &views[2]}));
  EXPECT_EQ(state.active_jobs(), (Views{&views[0], &views[1], &views[3]}));
  EXPECT_EQ(state.waiting_jobs(), (Views{&views[0], &views[1]}));
  EXPECT_EQ(state.running_jobs(), (Views{&views[3]}));

  views[1].status = JobStatus::Completed;
  state.retire(&views[1]);
  EXPECT_EQ(state.active_jobs(), (Views{&views[0], &views[3]}));
  EXPECT_EQ(state.jobs().size(), 4u);
  EXPECT_EQ(state.job(2), &views[1]);  // an ended job stays findable
  EXPECT_THROW(state.retire(&views[1]), std::logic_error);
  EXPECT_THROW(state.add_job(&views[0]), std::logic_error);  // JobIds are unique
}

/// A deploy_plan fixture: 8 GPUs on 2 nodes and a few 2-GPU jobs.
struct PlanWorld {
  cluster::Topology topo = small_topology();
  cluster::Assignment live{topo.total_gpus()};
  std::vector<JobView> views = {make_view(1, "ResNet18", 1000), make_view(2, "ResNet18", 1000),
                                make_view(3, "ResNet18", 1000)};
  ClusterState state;

  PlanWorld() {
    state.topology = &topo;
    state.current = &live;
    for (const JobView& v : views) state.add_job(&v);
  }
  const JobView* view(JobId id) const { return state.job(id); }
  /// Run job `id` (1-based) on `gpus` with these local batches, keeping its
  /// view in step with `live` as the simulation driver does.
  void run(JobId id, const std::vector<GpuId>& gpus, const std::vector<int>& batches) {
    JobView& v = views[static_cast<std::size_t>(id - 1)];
    for (std::size_t i = 0; i < gpus.size(); ++i) live.place(gpus[i], id, batches[i]);
    v.status = JobStatus::Running;
    v.gpus = live.gpu_count(id);
    v.global_batch = live.global_batch(id);
  }
};

TEST(DeployPlan, PlanEqualToTheRunningSetIsANoOp) {
  PlanWorld w;
  EXPECT_FALSE(deploy_plan(w.state, {}).has_value());  // idle cluster, empty plan
  w.run(1, {0, 1}, {32, 32});
  w.run(2, {4}, {16});
  EXPECT_FALSE(deploy_plan(w.state, {{w.view(1), 2}, {w.view(2), 1}}).has_value());
  EXPECT_FALSE(deploy_plan(w.state, {{w.view(2), 1}, {w.view(1), 2}}).has_value());
  // Dropping a running job is a change: it loses its GPUs.
  const auto next = deploy_plan(w.state, {{w.view(1), 2}});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->gpu_count(2), 0);
  EXPECT_EQ(next->gpus_of(1), (std::vector<GpuId>{0, 1}));
}

TEST(DeployPlan, KeptJobsKeepTheirExactGpusAndLocalBatches) {
  PlanWorld w;
  // A split across both nodes with uneven local batches: nothing the
  // even placer would ever produce.
  w.run(1, {2, 5}, {48, 80});
  w.live.set_health(7, cluster::SlotHealth::Failed);
  const auto next = deploy_plan(w.state, {{w.view(1), 2}, {w.view(3), 2}});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->gpus_of(1), (std::vector<GpuId>{2, 5}));
  EXPECT_EQ(next->slot(2).local_batch, 48);
  EXPECT_EQ(next->slot(5).local_batch, 80);
  EXPECT_EQ(next->gpu_count(3), 2);
  EXPECT_EQ(next->global_batch(3), w.view(3)->spec.requested_batch);
  EXPECT_EQ(next->unhealthy_gpus(), w.live.unhealthy_gpus());  // health map carried
}

TEST(DeployPlan, RunningJobWithANewWorkerCountIsRePlaced) {
  PlanWorld w;
  w.run(1, {2, 5}, {48, 80});
  const auto next = deploy_plan(w.state, {{w.view(1), 4}});  // Optimus grows a job
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->gpus_of(1), (std::vector<GpuId>{0, 1, 2, 3}));  // one whole node
  EXPECT_EQ(next->global_batch(1), w.view(1)->spec.requested_batch);
}

TEST(DeployPlan, NewJobsArePlacedInPlanOrder) {
  PlanWorld w;
  const auto ab = deploy_plan(w.state, {{w.view(1), 3}, {w.view(2), 3}});
  const auto ba = deploy_plan(w.state, {{w.view(2), 3}, {w.view(1), 3}});
  ASSERT_TRUE(ab.has_value() && ba.has_value());
  EXPECT_EQ(ab->gpus_of(1), (std::vector<GpuId>{0, 1, 2}));
  EXPECT_EQ(ab->gpus_of(2), (std::vector<GpuId>{4, 5, 6}));
  EXPECT_EQ(ba->gpus_of(2), (std::vector<GpuId>{0, 1, 2}));
  EXPECT_EQ(ba->gpus_of(1), (std::vector<GpuId>{4, 5, 6}));
  EXPECT_THROW(deploy_plan(w.state, {{w.view(1), 5}, {w.view(2), 5}}), std::logic_error);
}

TEST(DeployPlan, GreedyFitSkipsPastJobsThatDoNotFit) {
  PlanWorld w;
  w.views[0].spec.requested_gpus = 5;
  w.views[1].spec.requested_gpus = 3;
  w.views[2].spec.requested_gpus = 2;
  w.live.set_health(7, cluster::SlotHealth::Failed);  // 7 healthy GPUs of 8
  std::vector<PlannedJob> plan = {{w.view(2), 1}};  // stale: fit_requested clears it
  fit_requested(w.state, {w.view(1), w.view(2), w.view(3)}, plan);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].job, w.view(1));
  EXPECT_EQ(plan[0].workers, 5);
  EXPECT_EQ(plan[1].job, w.view(3));  // job 2 would fit only on the down GPU
  EXPECT_EQ(plan[1].workers, 2);
}

/// A seeded random gang-scheduling state: 16 GPUs on 4 nodes, a few of them
/// down, and up to 24 jobs whose JobIds are shuffled against arrival order,
/// with random attained service. About half run, mostly on their requested
/// GPU count and sometimes on another one.
struct RandomGangWorld {
  cluster::Topology topo = [] {
    cluster::TopologyConfig c;
    c.num_nodes = 4;
    c.gpus_per_node = 4;
    return cluster::Topology(c);
  }();
  cluster::Assignment live{topo.total_gpus()};
  std::vector<JobView> views;
  ClusterState state;
  Rng rng;

  explicit RandomGangWorld(std::uint64_t seed) : rng(seed) {
    const char* models[] = {"ResNet18", "VGG16", "GoogleNet", "ResNet50"};
    for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k) {
      live.set_health(static_cast<GpuId>(rng.uniform_int(0, topo.total_gpus() - 1)),
                      cluster::SlotHealth::Failed);
    }
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 24));
    std::vector<JobId> ids;
    for (JobId id = 1; id <= static_cast<JobId>(3 * n); ++id) ids.push_back(id);
    rng.shuffle(ids);
    views.reserve(n);  // the state holds pointers into it
    for (std::size_t i = 0; i < n; ++i) {
      JobView v = make_view(ids[i], models[rng.uniform_int(0, 3)], 20000);
      v.spec.requested_gpus = static_cast<int>(rng.uniform_int(1, 4));
      v.spec.arrival_time_s = 10.0 * static_cast<double>(i);
      v.exec_time_s = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 4000.0);
      views.push_back(v);
    }
    for (JobView& v : views) {
      if (!rng.bernoulli(0.5)) continue;
      const int workers =
          rng.bernoulli(0.8) ? v.spec.requested_gpus : static_cast<int>(rng.uniform_int(1, 4));
      const auto gpus = pick_idle_gpus(live, topo, workers);
      if (gpus.empty()) continue;
      place_job_even(live, v.spec.id, gpus, v.spec.requested_batch);
      v.status = JobStatus::Running;
      v.gpus = workers;
      v.global_batch = live.global_batch(v.spec.id);
    }
    state.topology = &topo;
    state.current = &live;
    state.now = 10.0 * static_cast<double>(n) + rng.uniform(0.0, 5000.0);
    for (const JobView& v : views) state.add_job(&v);
  }
};

/// deploy_plan as it was first written: rebuild from an empty schedule with
/// the live health map, re-placing every kept job GPU by GPU.
std::optional<cluster::Assignment> rebuild_plan(const ClusterState& state,
                                                const std::vector<PlannedJob>& plan) {
  const cluster::Assignment& live = *state.current;
  const auto kept = [](const PlannedJob& p) { return p.job->gpus == p.workers; };
  if (plan.size() == live.running_jobs().size() &&
      std::all_of(plan.begin(), plan.end(), kept)) {
    return std::nullopt;
  }
  cluster::Assignment next = cluster::Assignment::empty_like(live);
  for (const PlannedJob& p : plan) {
    if (!kept(p)) continue;
    for (GpuId g : live.gpus_of(p.job->spec.id)) {
      next.place(g, p.job->spec.id, live.slot(g).local_batch);
    }
  }
  for (const PlannedJob& p : plan) {
    if (kept(p)) continue;
    place_job_even(next, p.job->spec.id, pick_idle_gpus(next, *state.topology, p.workers),
                   p.job->spec.requested_batch);
  }
  return next;
}

TEST(DeployPlan, StartingFromTheLiveScheduleEqualsAnEmptyRebuild) {
  int deployed = 0, kept_some = 0, unchanged = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    RandomGangWorld w(seed);
    std::vector<PlannedJob> plan;
    if (w.rng.bernoulli(0.15)) {  // exactly the running set: no change
      for (const JobView* job : w.state.active_jobs()) {
        if (job->gpus > 0) plan.push_back({job, job->gpus});
      }
    } else {
      std::vector<const JobView*> jobs = w.state.active_jobs();
      w.rng.shuffle(jobs);
      int capacity = w.live.healthy_count();
      for (const JobView* job : jobs) {
        const int workers = job->gpus > 0 && w.rng.bernoulli(0.7)
                                ? job->gpus
                                : static_cast<int>(w.rng.uniform_int(1, 4));
        if (workers > capacity || !w.rng.bernoulli(0.8)) continue;
        plan.push_back({job, workers});
        capacity -= workers;
      }
    }
    const auto want = rebuild_plan(w.state, plan);
    const auto have = deploy_plan(w.state, plan);
    ASSERT_EQ(have.has_value(), want.has_value());
    if (!have.has_value()) {
      ++unchanged;
      continue;
    }
    ++deployed;
    kept_some += std::any_of(plan.begin(), plan.end(),
                             [](const PlannedJob& p) { return p.job->gpus == p.workers; });
    EXPECT_EQ(*have, *want) << have->to_string() << " vs " << want->to_string();
    EXPECT_EQ(have->running_jobs(), want->running_jobs());
    EXPECT_EQ(have->idle_gpus(), want->idle_gpus());
    EXPECT_EQ(have->unhealthy_gpus(), w.live.unhealthy_gpus());
    EXPECT_NO_THROW(have->audit_indexes());
  }
  EXPECT_GT(deployed, 150);
  EXPECT_GT(kept_some, 100);
  EXPECT_GT(unchanged, 20);
}

// Tiresias walks the active jobs into one bucket per queue; the result must
// be the plain (queue, JobId) sort, with and without STARVE-FREE promotion
// and with JobIds out of arrival order.
TEST(Tiresias, BucketedOrderEqualsAQueueThenIdSort) {
  for (const double knob : {0.0, 1.0}) {
    TiresiasConfig cfg;
    cfg.promote_knob = knob;
    TiresiasScheduler tiresias(cfg);
    int deployed = 0, promoted = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      SCOPED_TRACE(seed);
      RandomGangWorld w(seed);
      struct Cand {
        const JobView* job;
        int queue;
      };
      std::vector<Cand> cands;
      for (const JobView* job : w.state.active_jobs()) {
        int q = tiresias.queue_of(*job);
        const double waited = w.state.now - job->spec.arrival_time_s - job->exec_time_s;
        if (knob > 0.0 && job->status == JobStatus::Waiting && job->exec_time_s > 0.0 &&
            waited > knob * job->exec_time_s) {
          promoted += q > 0;
          q = 0;
        }
        cands.push_back({job, q});
      }
      std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        return a.queue != b.queue ? a.queue < b.queue : a.job->spec.id < b.job->spec.id;
      });
      std::vector<const JobView*> ordered;
      for (const Cand& c : cands) ordered.push_back(c.job);
      std::vector<PlannedJob> plan;
      fit_requested(w.state, ordered, plan);
      const auto want = deploy_plan(w.state, plan);
      for (int call = 0; call < 2; ++call) {  // the kept scratch must not leak between calls
        const auto have = tiresias.on_event(w.state, {});
        ASSERT_EQ(have.has_value(), want.has_value());
        if (have.has_value()) {
          EXPECT_EQ(*have, *want);
        }
      }
      deployed += want.has_value();
    }
    EXPECT_GT(deployed, 200);
    if (knob > 0.0) {
      EXPECT_GT(promoted, 50);
    }
  }
}

SimulationConfig small_sim_config() {
  SimulationConfig c;
  c.topology.num_nodes = 2;  // 8 GPUs
  return c;
}

workload::TraceConfig small_trace_config(int jobs, std::uint64_t seed = 11) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = 20.0;
  t.seed = seed;
  return t;
}

TEST(Simulation, FifoCompletesAllJobs) {
  FifoScheduler fifo;
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(10)),
                        fifo);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_EQ(sim.metrics().completed(), 10u);
  // Cluster drained at the end.
  EXPECT_EQ(sim.current_assignment().idle_count(), sim.topology().total_gpus());
}

TEST(Simulation, DeterministicAcrossRuns) {
  const auto trace = workload::generate_trace(small_trace_config(8));
  double jct_a, jct_b;
  {
    FifoScheduler fifo;
    ClusterSimulation sim(small_sim_config(), trace, fifo);
    sim.run();
    jct_a = summarize("f", sim.metrics(), 8).avg_jct;
  }
  {
    FifoScheduler fifo;
    ClusterSimulation sim(small_sim_config(), trace, fifo);
    sim.run();
    jct_b = summarize("f", sim.metrics(), 8).avg_jct;
  }
  EXPECT_DOUBLE_EQ(jct_a, jct_b);
}

TEST(Simulation, EpochLogsAreMonotone) {
  FifoScheduler fifo;
  const auto trace = workload::generate_trace(small_trace_config(5));
  ClusterSimulation sim(small_sim_config(), trace, fifo);
  sim.run();
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    EXPECT_EQ(v.status, JobStatus::Completed);
    ASSERT_GE(v.epoch_log.size(), 10u);  // at least the patience tail
    for (std::size_t i = 1; i < v.epoch_log.size(); ++i) {
      EXPECT_GE(v.epoch_log[i].time_s, v.epoch_log[i - 1].time_s);
      EXPECT_GT(v.epoch_log[i].samples_processed, v.epoch_log[i - 1].samples_processed);
    }
    EXPECT_EQ(static_cast<int>(v.epoch_log.size()), v.epochs_completed);
  }
}

TEST(Simulation, JctDecomposesIntoExecAndQueue) {
  FifoScheduler fifo;
  const auto trace = workload::generate_trace(small_trace_config(6));
  ClusterSimulation sim(small_sim_config(), trace, fifo);
  sim.run();
  for (const auto& spec : trace) {
    const auto& j = sim.metrics().job(spec.id);
    EXPECT_NEAR(j.jct(), j.exec_time_s + j.queue_time(), 1e-9);
    EXPECT_GE(j.queue_time(), -1e-9);
    EXPECT_GT(j.exec_time_s, 0.0);
  }
}

// A scheduler that returns an assignment referencing a job that does not
// exist must be rejected by the driver's validation.
class RogueScheduler : public Scheduler {
 public:
  std::string name() const override { return "Rogue"; }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent&) override {
    cluster::Assignment a(state.topology->total_gpus());
    a.place(0, 424242, 32);
    return a;
  }
};

TEST(Simulation, RejectsAssignmentsForUnknownJobs) {
  RogueScheduler rogue;
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(3)),
                        rogue);
  EXPECT_THROW(sim.run(), std::logic_error);
}

// A scheduler that exceeds a job's GPU memory limit must also be rejected.
class OversizedBatchScheduler : public Scheduler {
 public:
  std::string name() const override { return "Oversized"; }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override {
    if (event.kind != EventKind::JobArrival) return std::nullopt;
    cluster::Assignment a = *state.current;
    const auto* job = state.job(event.job);
    a.place(0, event.job, job->profile->max_local_batch * 2);
    return a;
  }
};

TEST(Simulation, RejectsOversizedLocalBatches) {
  OversizedBatchScheduler bad;
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(3)),
                        bad);
  EXPECT_THROW(sim.run(), std::logic_error);
}

// validate() checks only the jobs a deployment starts or reconfigures. A
// scheduler that keeps every live job as it is and breaks the per-job
// contract for one more job must still be rejected, with that check's
// message.
class ContractBreaker : public Scheduler {
 public:
  enum class Breach { PlaceCompleted, PlaceUnarrived, ExceedBatchLimit };
  ContractBreaker(Breach breach, JobId unarrived) : breach_(breach), unarrived_(unarrived) {}
  std::string name() const override { return "ContractBreaker"; }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override {
    const cluster::Assignment& live = *state.current;
    JobId rogue = kInvalidJob;
    if (breach_ == Breach::PlaceCompleted) {
      for (const JobView* v : state.jobs()) {
        if (v->status == JobStatus::Completed) rogue = v->spec.id;
      }
    } else if (breach_ == Breach::PlaceUnarrived && state.job(unarrived_) == nullptr) {
      rogue = unarrived_;
    }
    if (rogue != kInvalidJob && live.idle_count() > 0) {
      cluster::Assignment next = live;
      next.place(live.idle_gpus().front(), rogue, 1);
      return next;
    }
    if (breach_ == Breach::ExceedBatchLimit && !live.running_jobs().empty()) {
      const JobId job = live.running_jobs().front();
      cluster::Assignment next = live;
      next.set_local_batch(live.worker_gpus(job).front(),
                           state.job(job)->profile->max_local_batch + 1);
      return next;
    }
    return fifo_.on_event(state, event);
  }

 private:
  Breach breach_;
  JobId unarrived_;
  FifoScheduler fifo_;
};

/// The message of the std::logic_error a breaching run ends with ("" when
/// the run completes).
std::string breach_message(ContractBreaker::Breach breach) {
  const auto trace = workload::generate_trace(small_trace_config(6));
  const auto last = std::max_element(trace.begin(), trace.end(), [](const auto& a, const auto& b) {
    return a.arrival_time_s < b.arrival_time_s;
  });
  ContractBreaker rogue(breach, last->id);
  ClusterSimulation sim(small_sim_config(), trace, rogue);
  try {
    sim.run();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Simulation, RejectsPlacingACompletedJob) {
  EXPECT_NE(breach_message(ContractBreaker::Breach::PlaceCompleted).find("completed job"),
            std::string::npos);
}

TEST(Simulation, RejectsPlacingAJobThatHasNotArrived) {
  EXPECT_NE(breach_message(ContractBreaker::Breach::PlaceUnarrived).find("not yet arrived"),
            std::string::npos);
}

TEST(Simulation, RejectsReconfiguringAJobOverItsBatchLimit) {
  EXPECT_NE(breach_message(ContractBreaker::Breach::ExceedBatchLimit).find("memory limit"),
            std::string::npos);
}

TEST(Simulation, OracleHookReportsDecreasingRemaining) {
  // Exposed ground-truth hook must shrink as jobs progress.
  class Probe : public Scheduler {
   public:
    std::vector<double> samples;
    std::string name() const override { return "Probe"; }
    std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                                const SchedulerEvent& event) override {
      if (event.kind == EventKind::JobArrival && state.current->idle_count() > 0) {
        cluster::Assignment a = *state.current;
        const auto* job = state.job(event.job);
        a.place(a.idle_gpus().front(), event.job,
                std::min(job->spec.requested_batch, job->profile->max_local_batch));
        return a;
      }
      if (event.kind == EventKind::EpochComplete) {
        samples.push_back(state.true_remaining_samples(event.job, 256));
      }
      return std::nullopt;
    }
  };
  Probe probe;
  auto tc = small_trace_config(1);
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(tc), probe);
  sim.run();
  ASSERT_GE(probe.samples.size(), 5u);
  EXPECT_LT(probe.samples.back(), probe.samples.front());
}

TEST(Tiresias, QueueIndexFollowsAttainedService) {
  TiresiasConfig cfg;
  cfg.queue_thresholds = {100.0, 1000.0};
  TiresiasScheduler t(cfg);
  auto v = make_view(1, "ResNet18", 20000);
  v.spec.requested_gpus = 2;
  v.exec_time_s = 10.0;  // service 20
  EXPECT_EQ(t.queue_of(v), 0);
  v.exec_time_s = 200.0;  // service 400
  EXPECT_EQ(t.queue_of(v), 1);
  v.exec_time_s = 2000.0;  // service 4000
  EXPECT_EQ(t.queue_of(v), 2);
}

TEST(Tiresias, CompletesTraceAndPreempts) {
  TiresiasScheduler t;
  auto tc = small_trace_config(12);
  tc.mean_interarrival_s = 5.0;  // force contention so LAS must preempt
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(tc), t);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
}

/// Forwards to a policy and folds every decision into an FNV-1a-64 digest:
/// a marker for "keep the schedule", or the whole slot array it deployed.
class DigestingPolicy : public Scheduler {
 public:
  explicit DigestingPolicy(Scheduler& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  ScalingMechanism mechanism() const override { return inner_.mechanism(); }
  double period_s() const override { return inner_.period_s(); }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override {
    auto next = inner_.on_event(state, event);
    mix(next.has_value() ? 1 : 0);
    if (next.has_value()) {
      for (GpuId g = 0; g < next->num_gpus(); ++g) {
        const cluster::Slot& s = next->slot(g);
        mix(static_cast<std::uint64_t>(s.job));
        mix(static_cast<std::uint64_t>(s.local_batch));
        mix(static_cast<std::uint64_t>(s.health));
      }
    }
    return next;
  }
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t digest() const { return h_; }

 private:
  Scheduler& inner_;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Decision pin for Tiresias and the shared gang rebuild (deploy_plan), with
// the energy meter's joules: a seeded busy run on 64 GPUs with GPU and node
// faults (checkpoint restarts), killed jobs, and JobIds shuffled against
// arrival order. The digest covers every slot array the policy deployed and
// the bit patterns of the cluster, overhead, per-node and per-job joules.
// The same world runs again under audit_incremental, which recomputes every
// incremental index, the meter's draws and the live schedule's per-job
// contract after each event, and must not change a decision or a joule.
// Re-pin only for an intended decision or billing change.
TEST(Tiresias, DecisionsArePinned) {
  for (const bool audit : {false, true}) {
    SCOPED_TRACE(audit ? "audit_incremental" : "plain");
    SimulationConfig config;
    config.topology.num_nodes = 16;  // 64 GPUs
    config.fault.gpu_mtbf_s = 20000.0;
    config.fault.node_mtbf_s = 8000.0;
    config.audit_incremental = audit;
    telemetry::MetricsRegistry registry;
    config.metrics = &registry;
    workload::TraceConfig tc;
    tc.num_jobs = 240;
    tc.mean_interarrival_s = 4.0;
    tc.max_requested_gpus = 8;
    tc.abnormal_fraction = 0.2;
    tc.seed = 61;
    auto trace = workload::generate_trace(tc);
    std::vector<JobId> ids;
    for (const auto& spec : trace) ids.push_back(spec.id);
    Rng rng(5);
    rng.shuffle(ids);
    for (std::size_t i = 0; i < trace.size(); ++i) trace[i].id = ids[i];

    TiresiasScheduler tiresias;
    DigestingPolicy policy(tiresias);
    ClusterSimulation sim(config, trace, policy);
    sim.run();
    ASSERT_TRUE(sim.all_completed());
    EXPECT_GT(registry.counter_value("fault_job_restarts_total"), 0.0);
    EXPECT_GT(registry.counter_value("fault_gpu_down_total"), 0.0);
    int killed = 0;
    for (const auto& spec : trace) {
      if (spec.kill_after_s > 0.0 && sim.metrics().job(spec.id).aborted) ++killed;
    }
    EXPECT_GT(killed, 0);

    const energy::EnergyMeter& meter = sim.energy();
    policy.mix_double(meter.cluster_joules());
    policy.mix_double(meter.overhead_joules());
    for (const double j : meter.joules_by_node()) policy.mix_double(j);
    for (const auto& [job, j] : meter.joules_by_job()) {
      policy.mix(static_cast<std::uint64_t>(job));
      policy.mix_double(j);
    }
    policy.mix(sim.deployments());
    EXPECT_EQ(policy.digest(), 0xd8d2811447ef2cfdULL) << std::hex << "digest 0x" << policy.digest();
  }
}

TEST(Optimus, PredictsFromPriorWithoutHistory) {
  OptimusScheduler o;
  const auto v = make_view(1, "ResNet18", 20000);
  const double rem = o.predict_remaining_epochs(v);
  EXPECT_GT(rem, 10.0);  // prior total + patience tail
}

TEST(Optimus, FitConvergesTowardTruth) {
  OptimusScheduler o;
  auto v = make_view(1, "ResNet18", 20000);
  // Fabricate an accuracy curve approaching the ceiling; remaining epochs
  // should fall as observed epochs accumulate.
  const auto& p = *v.profile;
  for (int e = 1; e <= 10; ++e) {
    const double frac = static_cast<double>(e) / p.epochs_to_target_ref;
    const double acc = p.accuracy_ceiling * (1.0 - std::exp(-2.5 * frac));
    v.epoch_log.push_back({e * 10.0, e * 20000.0, 1.0, acc, 256});
  }
  v.epochs_completed = 10;
  const double rem10 = o.predict_remaining_epochs(v);
  v.epoch_log.push_back({110.0, 11 * 20000.0, 1.0, 0.9, 256});
  v.epochs_completed = 11;
  const double rem11 = o.predict_remaining_epochs(v);
  EXPECT_LT(rem11, rem10 + 1.0);
  EXPECT_GT(rem10, 0.0);
}

TEST(Optimus, IsPeriodicAndCompletesTrace) {
  OptimusScheduler o;
  EXPECT_GT(o.period_s(), 0.0);
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(8)),
                        o);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  // Round-based: first jobs cannot start before the first timer tick.
  double min_queue = 1e18;
  for (double q : sim.metrics().queue_times()) min_queue = std::min(min_queue, q);
  EXPECT_GT(min_queue, 0.0);
}

TEST(Srtf, OracleBaselineCompletesAndBeatsFifoOnContendedTrace) {
  auto tc = small_trace_config(16);
  tc.mean_interarrival_s = 4.0;
  const auto trace = workload::generate_trace(tc);
  double fifo_jct, srtf_jct;
  {
    FifoScheduler s;
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    EXPECT_TRUE(sim.all_completed());
    fifo_jct = summarize("f", sim.metrics(), 8).avg_jct;
  }
  {
    SrtfOracleScheduler s;
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    EXPECT_TRUE(sim.all_completed());
    srtf_jct = summarize("s", sim.metrics(), 8).avg_jct;
  }
  EXPECT_LT(srtf_jct, fifo_jct * 1.15);  // SRPT should not lose badly
}

TEST(Simulation, BackfillFifoNeverWorseOnUtilization) {
  auto tc = small_trace_config(14);
  tc.mean_interarrival_s = 6.0;
  const auto trace = workload::generate_trace(tc);
  double strict_makespan, backfill_makespan;
  {
    FifoScheduler s(false);
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    strict_makespan = sim.metrics().makespan();
  }
  {
    FifoScheduler s(true);
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    backfill_makespan = sim.metrics().makespan();
  }
  EXPECT_LE(backfill_makespan, strict_makespan * 1.05);
}

// Incremental-vs-rescan audit (DESIGN.md §12): with audit_incremental set,
// the driver recomputes every incremental index (Assignment's idle/per-job
// stats, the active/id job indexes) from first principles after every
// scheduler notification and throws on divergence. Exercising all six
// policies covers every mutation pattern — FIFO's monotone placement,
// SRTF/Tiresias preemption churn, Optimus's periodic timer reshuffles,
// DRL's action decoding, and ONES's evolutionary full-schedule swaps.
// The audit must also never change results.
TEST(Simulation, IncrementalIndexesSurviveAuditAcrossAllSchedulers) {
  struct Policy {
    std::string name;
    std::function<std::unique_ptr<Scheduler>()> make;
  };
  const std::vector<Policy> policies = {
      {"ONES", [] { return std::make_unique<core::OnesScheduler>(); }},
      {"DRL", [] { return std::make_unique<drl::DrlScheduler>(); }},
      {"Tiresias", [] { return std::make_unique<TiresiasScheduler>(); }},
      {"Optimus", [] { return std::make_unique<OptimusScheduler>(); }},
      {"FIFO-BF", [] { return std::make_unique<FifoScheduler>(true); }},
      {"SRTF", [] { return std::make_unique<SrtfOracleScheduler>(); }},
  };
  // Contended trace (more requested GPUs than the cluster holds at once) so
  // every policy actually preempts / reshuffles instead of placing once.
  const auto trace = workload::generate_trace(small_trace_config(12, 23));
  for (const Policy& p : policies) {
    SCOPED_TRACE(p.name);
    telemetry::Summary plain, audited;
    {
      auto sched = p.make();
      ClusterSimulation sim(small_sim_config(), trace, *sched);
      sim.run();
      plain = sim.summary(p.name);
    }
    {
      auto sched = p.make();
      auto config = small_sim_config();
      config.audit_incremental = true;
      ClusterSimulation sim(config, trace, *sched);
      sim.run();
      audited = sim.summary(p.name);
    }
    EXPECT_DOUBLE_EQ(plain.avg_jct, audited.avg_jct);
    EXPECT_DOUBLE_EQ(plain.makespan, audited.makespan);
    EXPECT_DOUBLE_EQ(plain.utilization, audited.utilization);
    EXPECT_DOUBLE_EQ(plain.cluster_joules, audited.cluster_joules);
  }
}

// The audit must catch real divergence: corrupting an index is not directly
// reachable through the public API (that is the point), so instead verify
// the Assignment-level audit entry point accepts a freshly-mutated schedule
// after every kind of mutation.
TEST(Assignment, AuditAcceptsEveryMutationPattern) {
  cluster::Assignment a(8);
  a.audit_indexes();
  a.place(3, 7, 32);
  a.place(4, 7, 32);
  a.place(0, 2, 16);
  a.audit_indexes();
  a.place(3, 2, 8);  // steal an occupied GPU for another job
  a.audit_indexes();
  a.set_local_batch(4, 64);
  a.audit_indexes();
  a.clear(0);
  a.audit_indexes();
  EXPECT_EQ(a.evict(7), 1);  // GPU 3 was stolen above; only GPU 4 remains
  a.audit_indexes();
  EXPECT_EQ(a.idle_count(), 7);
  EXPECT_EQ(a.gpu_count(2), 1);
  EXPECT_EQ(a.global_batch(2), 8);
}

}  // namespace
}  // namespace ones::sched
