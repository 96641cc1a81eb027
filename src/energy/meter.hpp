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
// Determinism: watts derive from PowerModel (pure), intervals from the sim
// clock. The optional MetricsRegistry follows the §9 contract — null by
// default, one branch per emission site, attaching it never changes joules.
#pragma once

#include <functional>
#include <map>
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

  /// Sim-time up to which joules have been integrated (the last
  /// on_assignment/finalize time).
  double metered_until() const { return last_t_; }

  // ---- Current draw (watts) ----
  double cluster_watts() const { return cluster_watts_; }

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
  void accumulate(double now);
  void rescan(const cluster::Assignment& next);
  void publish(double now);

  const PowerModel* model_;
  const cluster::Topology* topology_;
  ProfileLookup profile_of_;

  double last_t_ = 0.0;
  double cluster_watts_ = 0.0;
  double overhead_watts_ = 0.0;
  std::map<JobId, double> watts_by_job_;
  std::vector<double> watts_by_node_;

  double cluster_joules_ = 0.0;
  double overhead_joules_ = 0.0;
  std::map<JobId, double> joules_by_job_;
  std::vector<double> joules_by_node_;

  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TimelineSampler::SeriesId watts_series_ = 0;
};

}  // namespace ones::energy
