// Cluster simulation driver.
//
// Owns the discrete-event engine, the cluster topology, the arrival trace
// and one Scheduler. Delivers events (arrival / epoch-complete / completion /
// timer) to the scheduler, applies the Assignments it returns, charges the
// appropriate re-configuration costs (elastic vs checkpoint mechanism),
// advances each job's training dynamics and records telemetry.
//
// Job lifecycle per the paper: workers upload progress at the end of every
// epoch (§3.1); a job completes once its validation accuracy has held at or
// above target for 10 consecutive epochs (§4.1); preemption and elastic
// re-configuration are allowed at any time and charge the mechanism's cost
// while the job makes no progress.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/fault.hpp"
#include "cluster/topology.hpp"
#include "elastic/cost_model.hpp"
#include "energy/meter.hpp"
#include "energy/power_model.hpp"
#include "model/convergence.hpp"
#include "sched/oracle.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"

namespace ones::sched {

struct SimulationConfig {
  cluster::TopologyConfig topology;
  model::ConvergenceConfig convergence;
  elastic::CostConfig costs;
  OracleConfig oracle;
  /// Electrical constants for the energy meter (DESIGN.md §10). Unlike the
  /// trace/metrics sinks this IS simulation input: joules are part of the
  /// result, so the orchestrator serializes it into the cache key.
  energy::PowerConfig power;
  /// Fault injection + recovery policy (DESIGN.md §13). Like `power` this IS
  /// simulation input — failures move every metric — so the orchestrator
  /// serializes it into the cache key (schema v4). All-default (disabled)
  /// keeps the run bit-identical to a build without the subsystem.
  cluster::FaultConfig fault;
  /// Hard stop; a correct run finishes long before (all jobs complete).
  double max_sim_time_s = 1e7;
  /// Audit mode (DESIGN.md §12): after every scheduler notification,
  /// recompute all incremental indexes (Assignment's idle/per-job stats, the
  /// ClusterState job lists, the energy meter's cached draws) from first
  /// principles and throw on any divergence. Pure cross-check — it must never change results — so like
  /// the trace/metrics sinks it is deliberately NOT an orchestrator
  /// cache-key input. O(G + J) per event: tests only.
  bool audit_incremental = false;
  /// Keep per-epoch logs in the JobViews (needed by ONES and Optimus).
  bool record_epoch_logs = true;
  /// Structured run tracing (not owned; null — the default — disables it and
  /// costs one branch per emission site). Deliberately NOT part of the
  /// orchestrator cache key: tracing must never change results.
  trace::TraceSink* trace_sink = nullptr;
  /// Sim-time metrics registry (not owned; null — the default — disables all
  /// instrumentation and costs one branch per emission site). Same contract
  /// as the trace sink: deliberately NOT part of the orchestrator cache key,
  /// and attaching a registry must never change results (DESIGN.md §9).
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Host-time profiler (not owned; null — the default — disables all span
  /// sites at one branch each). The driver wires it into the engine and the
  /// scheduler. Same contract as the trace sink and metrics registry:
  /// deliberately NOT part of the orchestrator cache key, and attaching a
  /// profiler must never change results (DESIGN.md §14).
  prof::Profiler* profiler = nullptr;
};

class ClusterSimulation {
 public:
  ClusterSimulation(const SimulationConfig& config, std::vector<workload::JobSpec> trace,
                    Scheduler& scheduler);
  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;
  ~ClusterSimulation();

  /// Run the whole trace to completion (or to max_sim_time_s).
  void run();

  const telemetry::MetricsCollector& metrics() const { return metrics_; }
  /// Integrated per-job / per-node / cluster joules (final after run()).
  const energy::EnergyMeter& energy() const { return energy_; }
  /// telemetry::summarize over this run's metrics with the energy objective
  /// filled in (summarize() itself cannot: telemetry layers below energy).
  telemetry::Summary summary(const std::string& scheduler) const;
  const cluster::Topology& topology() const { return topology_; }
  const cluster::Assignment& current_assignment() const { return current_; }
  const JobView& job_view(JobId job) const;
  /// Jobs that finished (converged normally or aborted).
  std::size_t completed_jobs() const { return completed_count_; }
  bool all_completed() const { return completed_count_ == trace_.size(); }
  double now() const { return engine_.now(); }
  /// Number of Assignments the scheduler deployed (schedule churn).
  std::uint64_t deployments() const { return deployments_; }
  /// Total simulator events fired (the engine's counter): the deterministic
  /// work measure behind the hyperscale throughput curve (DESIGN.md §12).
  std::uint64_t events_fired() const { return engine_.fired(); }

 private:
  struct JobRuntime {
    JobView view;
    std::unique_ptr<model::TrainDynamics> dynamics;
    double tput_sps = 0.0;        ///< true throughput of the live placement
    double produce_start = 0.0;   ///< production resumes after scaling cost
    double last_accrue = 0.0;
    double epoch_samples_done = 0.0;
    sim::EventId epoch_event = 0;
    sim::EventId kill_event = 0;
    sim::EventId resume_event = 0;  ///< pending elastic_resumed trace record
    sim::EventId retry_event = 0;   ///< pending recovery backoff expiry
    bool ever_ran = false;
    int last_batch = 0;  ///< batch before the most recent stop/reconfigure
    model::TrainDynamics::EpochResult last_result;
    // ---- Fault recovery bookkeeping (DESIGN.md §13) ----
    int restarts = 0;           ///< checkpoint-restarts suffered (cumulative)
    double redo_s = 0.0;        ///< work since last checkpoint, redone on restart
    double failed_at = 0.0;     ///< sim time of the failure being recovered
    double lost_gpu_s = 0.0;    ///< accounted lost GPU-seconds (I10)
    bool pending_recovery = false;  ///< JobRecovered owed at next start
  };

  void on_arrival(JobId job);
  void on_epoch_event(JobId job);
  void on_kill_event(JobId job);
  void on_timer();
  /// Fault-injection entry point: apply a batch of health changes to the
  /// live assignment, route victim jobs into recovery and notify the
  /// scheduler with a CapacityChange event.
  void on_health_changes(const std::vector<cluster::HealthChange>& changes);
  /// Recover one job that lost >= 1 worker: elastic shrink onto the
  /// survivors when possible, checkpoint-restart (with backoff) otherwise.
  void recover_job(JobId job, double now);
  /// Backoff expiry: a Recovering job rejoins the queue.
  void on_retry_event(JobId job);
  /// Stop fault injection once the whole trace has completed.
  void maybe_halt_faults();
  void notify(EventKind kind, JobId job);
  void apply(cluster::Assignment next);
  /// The delta from current_ to `next`, after rejecting a deployment that
  /// breaks the cluster's or the jobs' contracts: size, slot invariants and
  /// health (I9) over the whole schedule, and the per-job checks over the
  /// jobs the delta starts or reconfigures.
  cluster::AssignmentDelta validate(const cluster::Assignment& next) const;

  void accrue(JobId job, double now);
  /// Start (or resume) a job on its GPUs in the installed `current_`.
  void start_job(JobId job, double now);
  void stop_job(JobId job, double now);
  /// The one reconfigure path (apply() and the elastic shrink-on-failure):
  /// move a running job from `old_workers` x `old_batch` to its GPUs in the
  /// installed `current_`, blocking production for `cost` seconds.
  void reconfigure_job(JobId job, int old_workers, int old_batch,
                       const std::vector<GpuId>& gpus, double cost, double now);
  /// The one job ending: normal completion, kill, or retries exhausted.
  /// Frees the job's GPUs if it was running; `cost_s`/`detail` go on the
  /// JobCompleted record. The caller owes the scheduler its notification.
  void retire_job(JobId job, double now, bool aborted, double cost_s = 0.0,
                  const char* detail = "");
  /// Blocked seconds the scheduler's mechanism charges to run a job on
  /// `gpus` after `old_workers` (0: resuming a preempted job) — an elastic
  /// resize or warm resume, or a checkpoint restart (paper §4.3).
  double scaling_cost(const JobView& view, int old_workers,
                      const std::vector<GpuId>& gpus) const;
  /// Cancel a pending engine event (no-op for 0) and clear its handle.
  void cancel(sim::EventId& event);
  void schedule_epoch_event(JobId job);
  /// True throughput of a job running on `gpus` of the installed `current_`.
  double actual_tput(const JobView& view, const std::vector<GpuId>& gpus) const;
  /// GPUs actually running a worker (down-but-idle GPUs are neither busy
  /// nor idle); equals total - idle with no faults in play.
  int busy_gpus() const;
  void update_busy();
  /// Metrics emission helpers; no-ops when no registry is attached.
  void sample_cluster_metrics();
  void record_batch_point(JobId job);

  JobRuntime& runtime(JobId job);
  const JobRuntime& runtime(JobId job) const;
  /// Refresh the persistent snapshot (clock only — the job lists and indexes
  /// are maintained incrementally at arrival/completion) and hand it out.
  const ClusterState& make_state();
  /// SimulationConfig::audit_incremental: recompute every incremental index
  /// and the energy meter's cached draws from first principles and throw on
  /// divergence.
  void audit_state() const;

  SimulationConfig config_;
  std::vector<workload::JobSpec> trace_;
  Scheduler& scheduler_;

  sim::SimEngine engine_;
  cluster::Topology topology_;
  cluster::Assignment current_;
  ThroughputOracle oracle_;
  elastic::ScalingCostModel cost_model_;
  telemetry::MetricsCollector metrics_;
  energy::PowerModel power_model_;
  energy::EnergyMeter energy_;
  /// Null unless SimulationConfig::fault.enabled().
  std::unique_ptr<cluster::FaultInjector> injector_;

  // ones-lint: unordered-ok(keyed lookup via runtime() only; every traversal goes through state_'s arrival-ordered lists)
  std::unordered_map<JobId, JobRuntime> runtimes_;
  /// Persistent scheduler snapshot (DESIGN.md §12): each job is added at
  /// arrival and retired when it ends. JobView pointers are stable:
  /// runtimes_ is node-based and never erased from.
  ClusterState state_;
  std::size_t completed_count_ = 0;
  std::uint64_t deployments_ = 0;
  bool in_notify_ = false;

  /// Stamps the live engine seq onto every record; all emitters (this driver
  /// and the scheduler) write through `sink_`, which points at the stamper
  /// when tracing is on and stays null otherwise.
  std::optional<trace::SeqStampedSink> trace_stamper_;
  trace::TraceSink* sink_ = nullptr;

  /// Null unless a registry is attached via SimulationConfig::metrics; every
  /// emission below checks it, so disabled metrics cost one branch.
  telemetry::MetricsRegistry* registry_ = nullptr;
  /// Null unless a profiler is attached via SimulationConfig::profiler
  /// (DESIGN.md §14); every span site checks it, so profiling off costs one
  /// branch.
  prof::Profiler* profiler_ = nullptr;
  telemetry::TimelineSampler::SeriesId queue_series_ = 0;
  telemetry::TimelineSampler::SeriesId busy_series_ = 0;
  telemetry::TimelineSampler::SeriesId frag_idle_series_ = 0;
  telemetry::TimelineSampler::SeriesId frag_scatter_series_ = 0;
  // ones-lint: unordered-ok(per-job series-id memo, find/emplace by JobId only, never iterated)
  std::unordered_map<JobId, telemetry::TimelineSampler::SeriesId> batch_series_;
};

}  // namespace ones::sched
