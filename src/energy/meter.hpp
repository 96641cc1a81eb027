// Sim-time energy accounting (DESIGN.md §10).
//
// The meter holds the cluster's current watts decomposition — per running
// job, per node, plus an overhead term (idle GPUs + per-node base power) —
// and integrates it into joules whenever the schedule changes:
//
//   joules += watts * (now - last_change)
//
// Attribution: a busy GPU's full draw is charged to the job occupying it;
// idle-GPU and node-base draw go to the `overhead` bucket. By construction
//
//   cluster_joules == sum_j job_joules(j) + overhead_joules
//   cluster_joules == sum_n node_joules(n)
//
// (node joules include each node's base power). The driver feeds every
// assignment change through `on_assignment` and closes the final interval
// with `finalize`, so the totals are exact integrals of the step-function
// power draw — the property tests/energy_test.cpp checks against the
// exported `cluster_watts` timeline.
//
// Each placed job's draw is cached: a schedule change reprices only the jobs
// whose GPUs or local batches moved, and re-sums only the nodes those jobs
// (and any GPU whose health changed) touch, in the fixed order a full
// re-sum uses, so joules are bit-for-bit those of a full repricing
// (DESIGN.md §10; `audit` checks it).
//
// Determinism: watts derive from PowerModel (pure), intervals from the sim
// clock. The optional MetricsRegistry follows the §9 contract — null by
// default, one branch per emission site, attaching it never changes joules.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "energy/power_model.hpp"
#include "model/task.hpp"
#include "telemetry/registry.hpp"

namespace ones::energy {

class EnergyMeter {
 public:
  /// Resolves a job id to its task profile; must stay valid for the meter's
  /// lifetime and cover every job that ever appears in an assignment.
  using ProfileLookup = std::function<const model::TaskProfile*(JobId)>;

  /// Starts metering at sim-time 0 with an empty (all-idle) cluster.
  /// `model` and `topology` are borrowed, not owned.
  EnergyMeter(const PowerModel& model, const cluster::Topology& topology,
              ProfileLookup profile_of);
  // The cached draws point into this meter's own joules map.
  EnergyMeter(const EnergyMeter&) = delete;
  EnergyMeter& operator=(const EnergyMeter&) = delete;

  /// Attach a registry (may be null). Publishes the `cluster_watts` timeline
  /// series, the `energy_cluster_watts` gauge and the monotone
  /// `energy_*_joules_total` counters.
  void set_metrics(telemetry::MetricsRegistry* registry);

  /// Integrate the previous watts up to `now`, then recompute the draw from
  /// `next`. Call on every applied schedule change (idempotent for repeated
  /// calls at the same sim-time or an unchanged assignment).
  void on_assignment(const cluster::Assignment& next, double now);

  /// Close the final interval at the end of the run.
  void finalize(double now);

  /// Audit mode: reprice `current` (the assignment of the last
  /// on_assignment) from scratch and throw (ONES_EXPECT) unless every cached
  /// draw and every watts sum equals it exactly. Tests and the simulation's
  /// `audit_incremental` flag only.
  void audit(const cluster::Assignment& current) const;

  /// Sim-time up to which joules have been integrated (the last
  /// on_assignment/finalize time).
  double metered_until() const { return last_t_; }

  // ---- Current draw (watts) ----
  double cluster_watts() const { return cluster_watts_; }
  /// Draw of a placed job (0.0 when it holds no GPU).
  double job_watts(JobId job) const;
  /// Per-node draw (base power included), indexed by NodeId.
  const std::vector<double>& watts_by_node() const { return watts_by_node_; }

  // ---- Integrated energy (joules) ----
  double cluster_joules() const { return cluster_joules_; }
  double overhead_joules() const { return overhead_joules_; }
  /// Energy charged to a job so far (0.0 for jobs that never ran).
  double job_joules(JobId job) const;
  /// Deterministic (id-ordered) per-job totals for every job that ran.
  const std::map<JobId, double>& joules_by_job() const { return joules_by_job_; }
  /// Per-node totals (base power included), indexed by NodeId.
  const std::vector<double>& joules_by_node() const { return joules_by_node_; }

 private:
  /// One worker of a priced job: where it runs and its local batch (its
  /// watts are gpu_watts_[gpu]).
  struct Worker {
    GpuId gpu = -1;
    int local_batch = 0;
    bool operator==(const Worker&) const = default;
  };
  /// One placed job's priced draw; its workers are workers_[begin, begin +
  /// count), in ascending GPU order.
  struct Draw {
    JobId job = kInvalidJob;
    int begin = 0;
    int count = 0;
    double watts = 0.0;  ///< sum of the workers' watts, in worker order
    /// The job's joules_by_job_ entry, made at its first interval with dt > 0
    /// (std::map nodes never move).
    double* joules = nullptr;
  };

  void accumulate(double now);
  /// Merge-walk the cached draws against `next`'s job index (both in JobId
  /// order), reprice the jobs that moved, then re-sum the touched nodes.
  void rescan(const cluster::Assignment& next);
  /// Mark the node of `gpu` for re-summing at the end of the next rescan.
  void touch(GpuId gpu);
  void touch_all_nodes();
  /// Node watts in the order a full re-sum adds them: base power, then the
  /// node's workers by their job's cluster-wide lowest GPU and ascending
  /// within a job, then its idle GPUs ascending.
  void resum_node(const cluster::Assignment& next, NodeId node);
  void publish(double now);

  const PowerModel* model_;
  const cluster::Topology* topology_;
  ProfileLookup profile_of_;

  double last_t_ = 0.0;
  double cluster_watts_ = 0.0;
  double overhead_watts_ = 0.0;
  std::vector<Draw> draws_;      ///< one per placed job, ascending by JobId
  std::vector<Worker> workers_;  ///< every draw's workers
  std::vector<double> watts_by_node_;
  /// overhead_by_idle_[k]: all nodes' base power plus k idle GPUs, summed
  /// one GPU at a time (the full re-sum's order).
  std::vector<double> overhead_by_idle_;
  /// Per GPU, the watts of the worker on it and its job's lowest GPU: written
  /// when the job is priced, read only while the GPU still runs that job
  /// (a job keeps both until it is repriced, since both move only with its
  /// GPUs or batches).
  std::vector<double> gpu_watts_;
  std::vector<GpuId> gpu_front_;
  /// The down GPUs of the last rescan, to find health changes.
  std::vector<GpuId> down_;
  // rescan's scratch: the next draws and workers (swapped in), the GPU and
  // batch vectors a repriced job is handed to the power model in, the nodes
  // to re-sum, and one node's (lowest GPU of the job, GPU) worker keys.
  std::vector<Draw> next_draws_;
  std::vector<Worker> next_workers_;
  std::vector<GpuId> gpus_scratch_;
  std::vector<int> batches_scratch_;
  std::vector<char> node_touched_;
  std::vector<NodeId> touched_nodes_;
  std::vector<std::pair<GpuId, GpuId>> node_workers_;

  double cluster_joules_ = 0.0;
  double overhead_joules_ = 0.0;
  std::map<JobId, double> joules_by_job_;
  std::vector<double> joules_by_node_;

  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TimelineSampler::SeriesId watts_series_ = 0;
};

}  // namespace ones::energy
