// Discrete-event enactment of the elastic scaling mechanism (Figs 11 & 12).
//
// The paper's mechanism: a central scheduler informs each GPU's *worker
// manager* of the new configuration; the manager's *scaling agent* pauses the
// user script at the end of a training step, resizes the modules, reconnects
// the workers into the new topology and resumes. New workers start first and
// overlap their (slow) initialization with the still-running training; only
// once they are ready do the previous workers drain one step and join the
// new topology, after which the parameters are broadcast from one previous
// worker.
//
// This module simulates that message flow event-by-event on the SimEngine.
// The fast cost model in cost_model.hpp is what the big trace simulations
// use; this protocol simulation validates the cost model's "blocked time"
// decomposition and powers the Fig 16 overhead benchmark.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "common/ids.hpp"
#include "elastic/cost_model.hpp"
#include "model/task.hpp"
#include "prof/profiler.hpp"
#include "sim/engine.hpp"
#include "telemetry/registry.hpp"

namespace ones::elastic {

/// Lifecycle of one worker during a scaling session.
enum class WorkerPhase {
  Idle,          ///< not part of the job
  Initializing,  ///< new worker: user script + module load in background
  Training,      ///< executing training steps in the old topology
  Draining,      ///< notified; finishing the in-flight step
  Reconnecting,  ///< joining the new topology
  Receiving,     ///< receiving the broadcast parameters
  Running,       ///< training in the new topology
};

const char* phase_name(WorkerPhase phase);

struct ScalingReport {
  double started_at = 0.0;
  double new_workers_ready_at = 0.0;  ///< background init finished
  double paused_at = 0.0;             ///< previous workers drained their step
  double resumed_at = 0.0;            ///< training continues in new topology
  /// Time the *job* made no training progress (pause -> resume). This is the
  /// number Figure 16 plots for "elastic batch size scaling".
  double blocked_s = 0.0;
  /// End-to-end session time including the overlapped background init.
  double total_s = 0.0;
  /// Workers reported dead mid-session via ScalingSession::on_worker_lost.
  int workers_lost = 0;
  /// True when every target worker died and the session gave up (the driver
  /// then falls back to checkpoint-restart, DESIGN.md §13).
  bool rolled_back = false;
  std::vector<std::string> timeline;  ///< human-readable event log
};

/// Configuration of one scaling session.
struct ScalingRequest {
  JobId job = kInvalidJob;
  std::vector<GpuId> old_workers;
  std::vector<GpuId> new_workers;
  int old_global_batch = 0;
  int new_global_batch = 0;
};

/// Simulates one elastic re-configuration of a job. Drives `engine` and
/// invokes `on_done` with the report when the session completes.
class ScalingSession {
 public:
  /// Where the session currently is; worker loss is handled per phase.
  enum class SessionPhase {
    Pending,       ///< constructed, start() not yet called
    Init,          ///< new workers initializing in the background
    Draining,      ///< previous workers finishing their in-flight step
    Reconnecting,  ///< workers joining the new topology
    Receiving,     ///< parameter broadcast in flight
    Done,          ///< on_done fired with a successful report
    RolledBack,    ///< every target worker died; on_done fired, rolled_back
  };

  ScalingSession(sim::SimEngine& engine, const model::TaskProfile& profile,
                 const cluster::Topology& topology, const CostConfig& costs,
                 ScalingRequest request, std::function<void(const ScalingReport&)> on_done);

  /// Kick off the protocol (schedules the first events).
  void start();

  /// A worker died mid-session (GPU fault / node crash / reclaim). The
  /// session converges deterministically on the survivors:
  ///   * Pending/Init/Draining — the dead worker is dropped from the target;
  ///     later stages are costed from the surviving set at stage entry.
  ///   * Reconnecting/Receiving — the in-flight stage is cancelled and the
  ///     survivors re-form the topology (a fresh reconnect, then broadcast).
  ///   * If no target worker survives, the session rolls back: on_done fires
  ///     immediately with rolled_back = true (blocked time accounted).
  /// Losing a worker that is in neither worker set (or after the session
  /// finished) is a no-op.
  void on_worker_lost(GpuId gpu);

  SessionPhase phase() const { return phase_; }

  /// Optional milestone hook, invoked at every timeline entry with the
  /// simulated time and message. The `trace` module adapts this into
  /// ProtocolPhase records (trace::protocol_phase_hook) — a plain callback
  /// keeps `elastic` below `trace` in the module layering. Set before
  /// start(); null (the default) costs one branch per milestone.
  void set_phase_hook(std::function<void(double t, const std::string& what)> hook) {
    phase_hook_ = std::move(hook);
  }

  /// Optional metrics registry (not owned; null — the default — disables
  /// instrumentation). On completion the session records
  /// `elastic_scalings_total`, `elastic_blocked_seconds_total` and the
  /// `elastic_last_blocked_seconds` gauge. Set before start().
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Optional host-time profiler (not owned; null — the default — costs one
  /// branch per stage). Each protocol stage handler runs under an
  /// `elastic.stage` span (DESIGN.md §14); never affects the session.
  void set_profiler(prof::Profiler* profiler) { profiler_ = profiler; }

 private:
  void log_event(const std::string& what);
  void on_new_workers_ready();
  void on_previous_drained();
  void begin_reconnect();
  void on_reconnected();
  void on_broadcast_done();
  void roll_back();

  sim::SimEngine& engine_;
  const model::TaskProfile& profile_;
  const cluster::Topology& topology_;
  CostConfig costs_;
  ScalingRequest request_;
  std::function<void(const ScalingReport&)> on_done_;
  std::function<void(double, const std::string&)> phase_hook_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
  ScalingReport report_;
  std::vector<GpuId> added_;
  std::vector<GpuId> kept_;
  SessionPhase phase_ = SessionPhase::Pending;
  sim::EventId pending_ = 0;  ///< the in-flight stage's engine event
};

/// Simulates a checkpoint-based migration of the same request: stop, save to
/// HDFS, reschedule, restart, reload. The whole session blocks training.
/// A non-null `metrics` records `checkpoint_migrations_total`,
/// `checkpoint_blocked_seconds_total` and `checkpoint_last_blocked_seconds`.
/// A non-null `profiler` runs the migration under an `elastic.checkpoint`
/// host-time span (DESIGN.md §14); neither ever affects the report.
ScalingReport run_checkpoint_migration(sim::SimEngine& engine,
                                       const model::TaskProfile& profile,
                                       const CostConfig& costs,
                                       const ScalingRequest& request,
                                       telemetry::MetricsRegistry* metrics = nullptr,
                                       prof::Profiler* profiler = nullptr);

}  // namespace ones::elastic
