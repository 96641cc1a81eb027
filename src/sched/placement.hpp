// Locality-aware placement helper shared by the gang-scheduling baselines.
//
// Picks idle GPUs for a worker set, preferring to pack the whole set onto a
// single node (best-fit: the node whose free-GPU count is smallest but
// sufficient), falling back to spilling across the emptiest nodes. ONES
// achieves the same effect through its *reorder* evolution operator instead.
#pragma once

#include <optional>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "sched/scheduler.hpp"

namespace ones::sched {

/// Choose `count` idle GPUs in `assignment`. Returns an empty vector if
/// fewer than `count` GPUs are idle.
std::vector<GpuId> pick_idle_gpus(const cluster::Assignment& assignment,
                                  const cluster::Topology& topology, int count);

/// Place `job` on `gpus` splitting `global_batch` as evenly as possible
/// (model::even_split's shares, in `gpus` order); needs global_batch >=
/// gpus.size(). The one even-split placement: the gang baselines and the
/// ONES operators all place through it.
void place_job_even(cluster::Assignment& assignment, JobId job,
                    const std::vector<GpuId>& gpus, int global_batch);

/// One entry of a gang-scheduling plan: run `job` on `workers` >= 1 GPUs.
struct PlannedJob {
  const JobView* job = nullptr;
  int workers = 0;
};

/// The one gang rebuild of the Tiresias, SRTF* and Optimus baselines.
/// Returns nullopt when the plan is already deployed: every planned job runs
/// on exactly `workers` GPUs (its JobView::gpus) and nothing else runs in
/// `state.current`. Otherwise the planned jobs already on `workers` GPUs
/// keep their GPUs and local batches, every other job is dropped, and the
/// rest of the plan is placed in plan order (pick_idle_gpus, then
/// place_job_even with the requested batch). The plan must fit the healthy
/// capacity.
std::optional<cluster::Assignment> deploy_plan(const ClusterState& state,
                                               const std::vector<PlannedJob>& plan);

/// Greedy gang fit shared by Tiresias and SRTF*: walk `ordered` and plan
/// every job whose requested GPU count still fits the healthy capacity
/// (a smaller job may skip past a blocked larger one).
std::vector<PlannedJob> fit_requested(const ClusterState& state,
                                      const std::vector<const JobView*>& ordered);

}  // namespace ones::sched
