#include "sched/placement.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ones::sched {

std::vector<GpuId> pick_idle_gpus(const cluster::Assignment& assignment,
                                  const cluster::Topology& topology, int count) {
  ONES_EXPECT(count >= 1);
  if (assignment.idle_count() < count) return {};

  // Free GPUs per node.
  std::vector<std::vector<GpuId>> free_by_node(static_cast<std::size_t>(topology.num_nodes()));
  for (GpuId g : assignment.idle_gpus()) {
    free_by_node[static_cast<std::size_t>(topology.node_of(g))].push_back(g);
  }

  // Best fit: the node with the *fewest* free GPUs that still fits the set,
  // to preserve large holes for large jobs.
  int best_node = -1;
  for (int n = 0; n < topology.num_nodes(); ++n) {
    const int free = static_cast<int>(free_by_node[static_cast<std::size_t>(n)].size());
    if (free >= count &&
        (best_node < 0 ||
         free < static_cast<int>(free_by_node[static_cast<std::size_t>(best_node)].size()))) {
      best_node = n;
    }
  }
  std::vector<GpuId> out;
  if (best_node >= 0) {
    const auto& pool = free_by_node[static_cast<std::size_t>(best_node)];
    out.assign(pool.begin(), pool.begin() + count);
    return out;
  }

  // Spill: take from the emptiest nodes first to minimize the span.
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
  ONES_EXPECT(static_cast<int>(out.size()) == count);
  return out;
}

namespace {

/// Worker `i`'s share of `global_batch` over `workers` (model::even_split's
/// shares, without building them): the first B % c workers take one extra
/// sample.
int even_share(int global_batch, int workers, int i) {
  return global_batch / workers + (i < global_batch % workers ? 1 : 0);
}

}  // namespace

void place_job_even(cluster::Assignment& assignment, JobId job,
                    std::span<const GpuId> gpus, int global_batch) {
  ONES_EXPECT(!gpus.empty());
  const int workers = static_cast<int>(gpus.size());
  ONES_EXPECT_MSG(global_batch >= workers, "cannot give every worker a sample");
  for (int i = 0; i < workers; ++i) {
    assignment.place(gpus[static_cast<std::size_t>(i)], job, even_share(global_batch, workers, i));
  }
}

bool holds_even_split(const cluster::Assignment& assignment, JobId job,
                      std::span<const GpuId> gpus, int global_batch) {
  ONES_EXPECT(!gpus.empty());
  const int workers = static_cast<int>(gpus.size());
  for (int i = 0; i < workers; ++i) {
    const cluster::Slot& s = assignment.slot(gpus[static_cast<std::size_t>(i)]);
    if (s.job != job || s.local_batch != even_share(global_batch, workers, i)) return false;
  }
  return true;
}

std::optional<cluster::Assignment> deploy_plan(const ClusterState& state,
                                               const std::vector<PlannedJob>& plan) {
  const cluster::Assignment& live = *state.current;
  // JobView::gpus is c_j under the live schedule (0 when not placed): an O(1)
  // read, where asking `live` would binary-search its job index per call.
  const auto kept = [](const PlannedJob& p) {
    ONES_EXPECT(p.workers >= 1);
    return p.job->gpus == p.workers;
  };
  if (plan.size() == live.running_jobs().size() &&
      std::all_of(plan.begin(), plan.end(), kept)) {
    return std::nullopt;
  }
  // Start from the live schedule, so the kept jobs stay put (GPUs, local
  // batches and all) at the cost of evicting only what the plan drops.
  std::vector<JobId> kept_ids;
  for (const PlannedJob& p : plan) {
    if (kept(p)) kept_ids.push_back(p.job->spec.id);
  }
  std::sort(kept_ids.begin(), kept_ids.end());
  cluster::Assignment next = live;
  for (const JobId j : live.running_jobs()) {
    if (!std::binary_search(kept_ids.begin(), kept_ids.end(), j)) next.evict(j);
  }
  for (const PlannedJob& p : plan) {
    if (kept(p)) continue;
    const auto gpus = pick_idle_gpus(next, *state.topology, p.workers);
    ONES_EXPECT_MSG(!gpus.empty(), "gang plan exceeds the healthy capacity");
    place_job_even(next, p.job->spec.id, gpus, p.job->spec.requested_batch);
  }
  return next;
}

void fit_requested(const ClusterState& state, const std::vector<const JobView*>& ordered,
                   std::vector<PlannedJob>& plan) {
  int capacity = state.current->healthy_count();
  plan.clear();
  for (const JobView* job : ordered) {
    if (job->spec.requested_gpus <= capacity) {
      plan.push_back({job, job->spec.requested_gpus});
      capacity -= job->spec.requested_gpus;
    }
  }
}

}  // namespace ones::sched
