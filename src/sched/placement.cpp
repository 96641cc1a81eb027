#include "sched/placement.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ones::sched {

std::vector<GpuId> pick_idle_gpus(const cluster::Assignment& assignment,
                                  const cluster::Topology& topology, int count) {
  ONES_EXPECT(count >= 1);
  if (assignment.idle_count() < count) return {};
  // idle_gpus() ascends, so each node's free GPUs are one run of it.
  const std::vector<GpuId>& idle = assignment.idle_gpus();
  const auto run_end = [&](std::size_t begin) {
    const NodeId node = topology.node_of(idle[begin]);
    std::size_t end = begin + 1;
    while (end < idle.size() && topology.node_of(idle[end]) == node) ++end;
    return end;
  };

  // Best fit: the node with the *fewest* free GPUs that still fits the set,
  // to preserve large holes for large jobs (the first such node on a tie). A
  // node with exactly `count` free GPUs cannot be beaten.
  std::size_t best_begin = 0;
  std::size_t best_size = 0;
  for (std::size_t begin = 0; begin < idle.size();) {
    const std::size_t end = run_end(begin);
    const std::size_t size = end - begin;
    if (size >= static_cast<std::size_t>(count) && (best_size == 0 || size < best_size)) {
      best_begin = begin;
      best_size = size;
      if (size == static_cast<std::size_t>(count)) break;
    }
    begin = end;
  }
  if (best_size > 0) {
    const auto first = idle.begin() + static_cast<std::ptrdiff_t>(best_begin);
    return {first, first + count};
  }

  // Spill: take from the emptiest nodes first to minimize the span. Every
  // node id is sorted, empty ones included, so std::sort breaks ties exactly
  // as it always has.
  const auto nodes = static_cast<std::size_t>(topology.num_nodes());
  std::vector<int> free(nodes, 0);
  std::vector<std::size_t> run_begin(nodes, 0);
  for (std::size_t begin = 0; begin < idle.size();) {
    const std::size_t end = run_end(begin);
    const auto n = static_cast<std::size_t>(topology.node_of(idle[begin]));
    free[n] = static_cast<int>(end - begin);
    run_begin[n] = begin;
    begin = end;
  }
  std::vector<int> order(nodes);
  for (std::size_t n = 0; n < nodes; ++n) order[n] = static_cast<int>(n);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return free[static_cast<std::size_t>(a)] > free[static_cast<std::size_t>(b)];
  });
  std::vector<GpuId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (const int n : order) {
    const auto first = idle.begin() + static_cast<std::ptrdiff_t>(run_begin[static_cast<std::size_t>(n)]);
    const int take = std::min(free[static_cast<std::size_t>(n)], count - static_cast<int>(out.size()));
    out.insert(out.end(), first, first + take);
    if (static_cast<int>(out.size()) == count) return out;
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
