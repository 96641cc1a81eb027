// Unit tests for src/cluster: topology, assignments (Eq. 1/2 mapping),
// invariants (Eq. 4 style), schedule diffing and fragmentation statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/fragmentation.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"

namespace ones::cluster {
namespace {

TopologyConfig small_config() {
  TopologyConfig c;
  c.num_nodes = 4;
  c.gpus_per_node = 4;
  return c;
}

TEST(Topology, Counts) {
  Topology t(small_config());
  EXPECT_EQ(t.total_gpus(), 16);
  EXPECT_EQ(t.num_nodes(), 4);
  EXPECT_EQ(t.gpus_per_node(), 4);
}

TEST(Topology, NodeOfMapsDensely) {
  Topology t(small_config());
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(15), 3);
  EXPECT_THROW(t.node_of(16), std::logic_error);
  EXPECT_THROW(t.node_of(-1), std::logic_error);
}

TEST(Topology, GpusOfNode) {
  Topology t(small_config());
  EXPECT_EQ(t.gpus_of(2), (std::vector<GpuId>{8, 9, 10, 11}));
}

TEST(Topology, NodesSpanned) {
  Topology t(small_config());
  EXPECT_EQ(t.nodes_spanned({0, 1, 2}), 1);
  EXPECT_EQ(t.nodes_spanned({0, 4}), 2);
  EXPECT_EQ(t.nodes_spanned({0, 5, 10, 15}), 4);
}

TEST(Topology, LinkProfileSelectsSlowestSegment) {
  Topology t(small_config());
  const auto intra = t.link_profile({0, 1});
  const auto inter = t.link_profile({0, 4});
  EXPECT_GT(intra.bandwidth_Bps, inter.bandwidth_Bps);
  EXPECT_LT(intra.latency_s, inter.latency_s);
  EXPECT_DOUBLE_EQ(intra.bandwidth_Bps, small_config().intra_node_bw_Bps);
  EXPECT_DOUBLE_EQ(inter.bandwidth_Bps, small_config().inter_node_bw_Bps);
}

TEST(Assignment, StartsEmpty) {
  Assignment a(8);
  EXPECT_EQ(a.num_gpus(), 8);
  EXPECT_EQ(a.idle_count(), 8);
  EXPECT_TRUE(a.running_jobs().empty());
}

TEST(Assignment, PlaceAndDerivedViews) {
  Assignment a(8);
  a.place(0, 1, 64);
  a.place(1, 1, 64);
  a.place(5, 2, 32);
  // Eq. 2: B_j = sum of local batches, c_j = worker count.
  EXPECT_EQ(a.global_batch(1), 128);
  EXPECT_EQ(a.gpu_count(1), 2);
  EXPECT_EQ(a.global_batch(2), 32);
  EXPECT_EQ(a.gpu_count(2), 1);
  EXPECT_EQ(a.gpus_of(1), (std::vector<GpuId>{0, 1}));
  EXPECT_EQ(a.running_jobs(), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(a.idle_count(), 5);
}

TEST(Assignment, UnplacedJobHasZeroBatchAndGpus) {
  Assignment a(4);
  EXPECT_EQ(a.global_batch(42), 0);
  EXPECT_EQ(a.gpu_count(42), 0);
}

TEST(Assignment, PlaceOverwrites) {
  Assignment a(4);
  a.place(0, 1, 64);
  a.place(0, 2, 32);  // preempt job 1 on this GPU
  EXPECT_EQ(a.slot(0).job, 2);
  EXPECT_EQ(a.gpu_count(1), 0);
}

TEST(Assignment, ClearAndEvict) {
  Assignment a(4);
  a.place(0, 1, 64);
  a.place(1, 1, 64);
  a.place(2, 2, 32);
  a.clear(0);
  EXPECT_EQ(a.gpu_count(1), 1);
  EXPECT_EQ(a.evict(1), 1);
  EXPECT_EQ(a.gpu_count(1), 0);
  EXPECT_EQ(a.evict(1), 0);  // idempotent
  EXPECT_EQ(a.gpu_count(2), 1);
}

TEST(Assignment, SetLocalBatch) {
  Assignment a(2);
  a.place(0, 1, 64);
  a.set_local_batch(0, 128);
  EXPECT_EQ(a.global_batch(1), 128);
  EXPECT_THROW(a.set_local_batch(1, 32), std::logic_error);  // idle GPU
}

TEST(Assignment, RejectsInvalidPlacement) {
  Assignment a(2);
  EXPECT_THROW(a.place(0, kInvalidJob, 16), std::logic_error);
  EXPECT_THROW(a.place(0, 1, 0), std::logic_error);   // empty worker
  EXPECT_THROW(a.place(5, 1, 16), std::logic_error);  // out of range
}

TEST(Assignment, RunningJobsFirstOccurrenceOrder) {
  Assignment a(6);
  a.place(0, 7, 8);
  a.place(1, 3, 8);
  a.place(2, 7, 8);
  a.place(3, 5, 8);
  EXPECT_EQ(a.running_jobs(), (std::vector<JobId>{7, 3, 5}));
}

TEST(Assignment, PlacementSummaryMatchesDerivedViews) {
  Assignment a(16);
  a.set_health(5, SlotHealth::Failed);
  a.place(9, 7, 48);
  a.place(2, 7, 32);
  a.place(3, 7, 16);
  a.place(0, 4, 8);
  for (const JobId j : {4, 7, 99}) {
    const std::vector<GpuId> gpus = a.gpus_of(j);
    const auto view = a.worker_gpus(j);
    EXPECT_EQ(std::vector<GpuId>(view.begin(), view.end()), gpus);
    const JobPlacement p = a.placement(j);
    EXPECT_EQ(p.workers, static_cast<int>(gpus.size()));
    EXPECT_EQ(p.global_batch, a.global_batch(j));
    int max_b = 0;
    for (GpuId g : gpus) max_b = std::max(max_b, a.slot(g).local_batch);
    EXPECT_EQ(p.max_local_batch, max_b);
    if (!gpus.empty()) {
      EXPECT_EQ(p.first_gpu, gpus.front());
      EXPECT_EQ(p.last_gpu, gpus.back());
    }
  }
  EXPECT_EQ(a.placement(7).max_local_batch, 48);
  EXPECT_EQ(a.placement(99).workers, 0);
}

TEST(Assignment, FromSlotsEqualsOnePlacePerGpu) {
  Assignment a(8);
  a.set_health(3, SlotHealth::Reclaimed);
  a.set_health(6, SlotHealth::Failed);
  a.place(5, 2, 16);
  a.place(0, 1, 32);
  a.place(7, 2, 8);
  a.place(1, 1, 32);
  std::vector<Slot> slots;
  for (int g = 0; g < a.num_gpus(); ++g) slots.push_back(a.slot(g));
  const Assignment b = Assignment::from_slots(slots);
  EXPECT_EQ(b, a);
  EXPECT_NO_THROW(b.audit_indexes());
  EXPECT_EQ(b.idle_gpus(), a.idle_gpus());
  EXPECT_EQ(b.unhealthy_gpus(), a.unhealthy_gpus());
  EXPECT_EQ(b.running_jobs(), a.running_jobs());
  EXPECT_EQ(b.global_batch(2), 24);

  slots[3].job = 1;  // a worker on a down GPU
  slots[3].local_batch = 8;
  EXPECT_THROW(Assignment::from_slots(slots), std::logic_error);
  slots[3] = Slot{kInvalidJob, 4, SlotHealth::Reclaimed};  // idle slot with a batch
  EXPECT_THROW(Assignment::from_slots(slots), std::logic_error);
}

/// running_jobs() as the slot array defines it: jobs in order of their
/// first worker, walking the GPUs in ascending order.
std::vector<JobId> first_occurrence_walk(const Assignment& a) {
  std::vector<JobId> out;
  for (GpuId g = 0; g < a.num_gpus(); ++g) {
    const JobId j = a.slot(g).job;
    if (j != kInvalidJob && std::find(out.begin(), out.end(), j) == out.end()) {
      out.push_back(j);
    }
  }
  return out;
}

/// Seeded random mutator sequence on a `gpus`-GPU assignment. After every
/// operation the incremental indexes must equal a rebuild from the slots,
/// and running_jobs() the first-occurrence walk.
void random_mutator_walk(int gpus, std::uint64_t seed, int ops) {
  Rng rng(seed);
  const int jobs = std::max(4, gpus / 3);
  const auto any_gpu = [&] { return static_cast<GpuId>(rng.uniform_int(0, gpus - 1)); };
  const auto any_job = [&] { return static_cast<JobId>(rng.uniform_int(1, jobs)); };
  const auto any_batch = [&] { return static_cast<int>(rng.uniform_int(1, 64)); };
  const auto any_health = [&] { return static_cast<SlotHealth>(rng.uniform_int(0, 2)); };
  // from_slots refuses workers on down GPUs, which set_health can leave.
  const auto placeable_slots = [](const Assignment& a) {
    std::vector<Slot> slots;
    for (GpuId g = 0; g < a.num_gpus(); ++g) {
      Slot s = a.slot(g);
      if (!s.healthy()) s = Slot{kInvalidJob, 0, s.health};
      slots.push_back(s);
    }
    return slots;
  };
  Assignment a(gpus);
  for (int op = 0; op < ops; ++op) {
    const auto kind = rng.uniform_int(0, 11);
    if (kind <= 4) {  // place: the common mutation, often over another job
      const GpuId g = any_gpu();
      if (a.slot(g).healthy()) a.place(g, any_job(), any_batch());
    } else if (kind == 5) {
      a.clear(any_gpu());
    } else if (kind == 6) {
      a.evict(any_job());
    } else if (kind == 7) {
      const GpuId g = any_gpu();
      if (a.slot(g).occupied()) a.set_local_batch(g, any_batch());
    } else if (kind == 8) {
      // Mostly heal, so that the cluster keeps placeable GPUs.
      a.set_health(any_gpu(), rng.bernoulli(0.5) ? SlotHealth::Healthy : any_health());
    } else if (kind == 9) {
      Assignment health_map = Assignment::empty_like(a);
      for (int k = 0; k < 3; ++k) health_map.set_health(any_gpu(), any_health());
      a.sync_health(health_map);
    } else if (kind == 10) {
      a = Assignment::from_slots(placeable_slots(a));
    } else {
      // A copy must be independent of its source.
      Assignment copy = a;
      const GpuId g = any_gpu();
      if (copy.slot(g).healthy()) copy.place(g, any_job(), any_batch());
      ASSERT_NO_THROW(copy.audit_indexes()) << "op " << op;
    }
    ASSERT_NO_THROW(a.audit_indexes()) << "op " << op << " kind " << kind;
    ASSERT_EQ(a.running_jobs(), first_occurrence_walk(a)) << "op " << op << " kind " << kind;
  }
}

TEST(Assignment, RandomMutatorsKeepIndexesExact16Gpus) {
  for (std::uint64_t seed : {1, 2, 3}) random_mutator_walk(16, seed, 4000);
}

TEST(Assignment, RandomMutatorsKeepIndexesExact128Gpus) {
  for (std::uint64_t seed : {4, 5}) random_mutator_walk(128, seed, 4000);
}

TEST(Assignment, EqualityAndToString) {
  Assignment a(3), b(3);
  a.place(0, 1, 16);
  b.place(0, 1, 16);
  EXPECT_EQ(a, b);
  b.place(2, 2, 8);
  EXPECT_NE(a, b);
  EXPECT_EQ(b.to_string(), "[1:16 - 2:8]");
}

TEST(Assignment, CheckInvariantsPasses) {
  Assignment a(4);
  a.place(0, 1, 16);
  EXPECT_NO_THROW(a.check_invariants());
}

TEST(AssignmentDiff, ClassifiesChanges) {
  Assignment prev(6), next(6);
  prev.place(0, 1, 16);  // job 1: unchanged
  next.place(0, 1, 16);
  prev.place(1, 2, 16);  // job 2: stopped
  next.place(2, 3, 16);  // job 3: started
  prev.place(3, 4, 16);  // job 4: moved GPU (reconfigured)
  next.place(4, 4, 16);
  prev.place(5, 5, 16);  // job 5: batch changed (reconfigured)
  next.place(5, 5, 32);

  const auto d = diff(prev, next);
  for (const auto* list : {&d.started, &d.stopped, &d.reconfigured}) {
    EXPECT_EQ(std::count(list->begin(), list->end(), JobId{1}), 0);  // unchanged
  }
  EXPECT_EQ(d.stopped, (std::vector<JobId>{2}));
  EXPECT_EQ(d.started, (std::vector<JobId>{3}));
  ASSERT_EQ(d.reconfigured.size(), 2u);
  EXPECT_TRUE((d.reconfigured == std::vector<JobId>{4, 5}) ||
              (d.reconfigured == std::vector<JobId>{5, 4}));
}

TEST(AssignmentDiff, GrowingWorkerSetIsReconfigured) {
  Assignment prev(4), next(4);
  prev.place(0, 1, 32);
  next.place(0, 1, 16);
  next.place(1, 1, 16);
  const auto d = diff(prev, next);
  EXPECT_EQ(d.reconfigured, (std::vector<JobId>{1}));
  EXPECT_TRUE(d.started.empty());
  EXPECT_TRUE(d.stopped.empty());
}

/// diff() as a per-job lookup: lists in running_jobs() order, membership
/// by gpu_count, change by same_placement.
AssignmentDelta reference_diff(const Assignment& prev, const Assignment& next) {
  AssignmentDelta d;
  for (const JobId j : next.running_jobs()) {
    if (prev.gpu_count(j) == 0) {
      d.started.push_back(j);
    } else if (!prev.same_placement(next, j)) {
      d.reconfigured.push_back(j);
    }
  }
  for (const JobId j : prev.running_jobs()) {
    if (next.gpu_count(j) == 0) d.stopped.push_back(j);
  }
  return d;
}

// The merge walk must give the per-job reference's three lists in the same
// order, over seeded schedule pairs with down GPUs, JobIds unrelated to GPU
// order, moves of a job's lowest GPU (which reorder first occurrence) and
// batch-only changes.
TEST(Diff, MergeWalkEqualsPerJobReference) {
  enum Op { Evict, Place, MoveFront, Rebatch, Down, Heal, kOps };
  std::vector<int> seen(kOps, 0);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto pick = [&](const auto& v) {
      return v[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
    };
    const auto place_new = [&](Assignment& a) {
      std::vector<GpuId> idle = a.idle_gpus();
      if (idle.empty()) return false;
      JobId job = 0;
      do {
        job = static_cast<JobId>(rng.uniform_int(1, 40));
      } while (a.gpu_count(job) > 0);
      rng.shuffle(idle);
      const auto workers = rng.uniform_int(1, std::min<std::int64_t>(5, static_cast<std::int64_t>(idle.size())));
      for (std::int64_t w = 0; w < workers; ++w) {
        a.place(idle[static_cast<std::size_t>(w)], job, static_cast<int>(rng.uniform_int(1, 64)));
      }
      return true;
    };
    Assignment prev(16);
    for (GpuId g = 0; g < 16; ++g) {
      if (rng.bernoulli(0.1)) prev.set_health(g, SlotHealth::Failed);
    }
    for (std::int64_t k = rng.uniform_int(0, 5); k > 0; --k) place_new(prev);

    Assignment next = prev;
    for (std::int64_t k = rng.uniform_int(0, 5); k > 0; --k) {
      const auto op = static_cast<Op>(rng.uniform_int(0, kOps - 1));
      const std::vector<JobId> running = next.running_jobs();
      const std::vector<GpuId> idle = next.idle_gpus();
      if (op == Evict && !running.empty()) {
        next.evict(pick(running));
      } else if (op == Place) {
        if (!place_new(next)) continue;
      } else if (op == MoveFront && !running.empty() && !idle.empty()) {
        const JobId job = pick(running);
        const GpuId front = next.worker_gpus(job).front();
        const int batch = next.slot(front).local_batch;
        next.clear(front);
        next.place(pick(idle), job, batch);
      } else if (op == Rebatch && !running.empty()) {
        const JobId job = pick(running);
        const auto gpus = next.gpus_of(job);
        next.set_local_batch(pick(gpus), static_cast<int>(rng.uniform_int(1, 64)));
      } else if (op == Down) {
        const auto g = static_cast<GpuId>(rng.uniform_int(0, 15));
        next.clear(g);
        next.set_health(g, SlotHealth::Failed);
      } else if (op == Heal && !next.unhealthy_gpus().empty()) {
        next.set_health(pick(next.unhealthy_gpus()), SlotHealth::Healthy);
      } else {
        continue;
      }
      ++seen[op];
    }

    const AssignmentDelta have = diff(prev, next);
    const AssignmentDelta want = reference_diff(prev, next);
    EXPECT_EQ(have.started, want.started);
    EXPECT_EQ(have.stopped, want.stopped);
    EXPECT_EQ(have.reconfigured, want.reconfigured);
  }
  for (int op = 0; op < kOps; ++op) EXPECT_GT(seen[static_cast<std::size_t>(op)], 50) << op;
}

TEST(AssignmentDiff, RequiresSameClusterSize) {
  Assignment a(2), b(3);
  EXPECT_THROW(diff(a, b), std::logic_error);
}

TEST(Fragmentation, EmptyClusterIsOneBigBlock) {
  const Topology topo(small_config());
  Assignment a(topo.total_gpus());
  const auto f = fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 16);
  EXPECT_EQ(f.largest_colocated_block, 4);
  EXPECT_EQ(f.nodes_with_idle, 4);
  EXPECT_DOUBLE_EQ(f.scatter_index, 0.0);  // cannot be less scattered
}

TEST(Fragmentation, ScatteredHolesScoreHigh) {
  const Topology topo(small_config());
  Assignment a(topo.total_gpus());
  // Fill everything except one GPU per node: 4 idle GPUs on 4 nodes (the
  // worst case for a 4-GPU gang).
  for (int g = 0; g < 16; ++g) {
    if (g % 4 != 0) a.place(g, 1, 8);
  }
  const auto f = fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 4);
  EXPECT_EQ(f.largest_colocated_block, 1);  // no colocated pair fits
  EXPECT_EQ(f.nodes_with_idle, 4);
  EXPECT_DOUBLE_EQ(f.scatter_index, 1.0);
}

TEST(Fragmentation, PackedHolesScoreLow) {
  const Topology topo(small_config());
  Assignment a(topo.total_gpus());
  // Fill nodes 1..3 entirely: the 4 idle GPUs share node 0.
  for (int g = 4; g < 16; ++g) a.place(g, 1, 8);
  const auto f = fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 4);
  EXPECT_EQ(f.largest_colocated_block, 4);  // a colocated 4-GPU gang fits
  EXPECT_DOUBLE_EQ(f.scatter_index, 0.0);
}

TEST(Fragmentation, FullClusterHasNoIdle) {
  const Topology topo(small_config());
  Assignment a(topo.total_gpus());
  for (int g = 0; g < 16; ++g) a.place(g, 1, 8);
  const auto f = fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 0);
  EXPECT_EQ(f.largest_colocated_block, 0);
  EXPECT_DOUBLE_EQ(f.scatter_index, 0.0);
}

}  // namespace
}  // namespace ones::cluster
