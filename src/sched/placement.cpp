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

void place_job_even(cluster::Assignment& assignment, JobId job,
                    const std::vector<GpuId>& gpus, int global_batch) {
  ONES_EXPECT(!gpus.empty());
  const int workers = static_cast<int>(gpus.size());
  ONES_EXPECT_MSG(global_batch >= workers, "cannot give every worker a sample");
  // model::even_split's shares, without building them: the first B % c
  // workers take one extra sample.
  const int base = global_batch / workers;
  const int rem = global_batch % workers;
  for (int i = 0; i < workers; ++i) {
    assignment.place(gpus[static_cast<std::size_t>(i)], job, base + (i < rem ? 1 : 0));
  }
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
  cluster::Assignment next = cluster::Assignment::empty_like(live);
  for (const PlannedJob& p : plan) {
    if (!kept(p)) continue;
    for (GpuId g : live.gpus_of(p.job->spec.id)) {
      next.place(g, p.job->spec.id, live.slot(g).local_batch);
    }
  }
  for (const PlannedJob& p : plan) {
    if (kept(p)) continue;
    const auto gpus = pick_idle_gpus(next, *state.topology, p.workers);
    ONES_EXPECT_MSG(!gpus.empty(), "gang plan exceeds the healthy capacity");
    place_job_even(next, p.job->spec.id, gpus, p.job->spec.requested_batch);
  }
  return next;
}

std::vector<PlannedJob> fit_requested(const ClusterState& state,
                                      const std::vector<const JobView*>& ordered) {
  int capacity = state.current->healthy_count();
  std::vector<PlannedJob> plan;
  for (const JobView* job : ordered) {
    if (job->spec.requested_gpus <= capacity) {
      plan.push_back({job, job->spec.requested_gpus});
      capacity -= job->spec.requested_gpus;
    }
  }
  return plan;
}

}  // namespace ones::sched
