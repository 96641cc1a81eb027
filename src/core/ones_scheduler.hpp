// ONES — the ONline Evolutionary Scheduler (the paper's contribution).
//
// Event-driven (no fixed rescheduling interval): every job arrival, epoch
// completion and job completion advances the evolutionary search a few
// iterations against live cluster state, and the best candidate schedule is
// deployed when the update condition holds. Per the paper (§3.2.2 "Update"),
// the schedule is not replaced more often than once per epoch of every
// running job — except that ONES responds immediately when GPUs free up
// (job completions) or new jobs arrive to an under-full cluster, which is
// exactly the responsiveness advantage §2.1 claims over interval-based
// schedulers.
//
// Re-configurations deploy through the elastic batch-size scaling mechanism
// (§3.3), so the cost charged per change is ~1 s instead of tens of seconds.
#pragma once

#include <optional>
#include <unordered_map>

#include "core/batch_policy.hpp"
#include "core/evolution.hpp"
#include "predict/progress_predictor.hpp"
#include "sched/scheduler.hpp"

namespace ones::core {

/// The per-event policy loop ONES and ONES-SA share: the batch limits R
/// (§3.3.2), the progress predictor (§3.2.1) and the §3.2.2 update condition.
/// Each scheduler runs only its search between `begin` and `commit`:
///
///   const EvolutionContext ctx = loop.begin(state, event);
///   ... search ...
///   if (!loop.ready(state, event)) return std::nullopt;
///   return loop.commit(state, winner);
class PolicyLoop {
 public:
  PolicyLoop(const BatchPolicyConfig& policy, const predict::PredictorConfig& predictor,
             bool use_predictor);

  /// The event's bookkeeping (limit state machines, predictor refit on a
  /// normal completion), then the snapshot the search runs on.
  EvolutionContext begin(const sched::ClusterState& state, const sched::SchedulerEvent& event);

  /// The update condition: whether a new schedule may be deployed now.
  bool ready(const sched::ClusterState& state, const sched::SchedulerEvent& event) const;

  /// Nullopt when `best` is the live schedule. Otherwise records the resume
  /// and preemption bookkeeping and the pacing state against `best`, and
  /// returns it for deployment.
  std::optional<cluster::Assignment> commit(const sched::ClusterState& state,
                                            cluster::Assignment best);

  /// Predictor refits land in the run's registry and profile (`predict.fit`).
  void set_metrics(telemetry::MetricsRegistry* metrics) { predictor_.set_metrics(metrics); }
  void set_profiler(prof::Profiler* profiler) { predictor_.set_profiler(profiler); }

  const predict::ProgressPredictor& predictor() const { return predictor_; }
  const BatchLimitManager& limits() const { return limits_; }

 private:
  predict::ProgressPredictor predictor_;
  BatchLimitManager limits_;
  bool use_predictor_;
  /// epochs_completed of each running job at the moment of the last deploy.
  // ones-lint: unordered-ok(find-by-JobId only (progress gate); rebuilt from running_jobs() order on each deploy)
  std::unordered_map<JobId, int> epochs_at_deploy_;
};

struct OnesConfig {
  EvolutionConfig evolution;
  BatchPolicyConfig policy;
  predict::PredictorConfig predictor;
  /// Ablation: disable the Beta-progress predictor (rho fixed at 1/2).
  bool use_predictor = true;
  /// Ablation: deploy re-configurations by checkpoint migration instead of
  /// elastic scaling (§3.3); the scheduler then reports as "ONES-ckpt".
  sched::ScalingMechanism mechanism = sched::ScalingMechanism::Elastic;
};

class OnesScheduler : public sched::Scheduler {
 public:
  explicit OnesScheduler(const OnesConfig& config = {});

  std::string name() const override {
    return config_.mechanism == sched::ScalingMechanism::Checkpoint ? "ONES-ckpt" : "ONES";
  }
  sched::ScalingMechanism mechanism() const override { return config_.mechanism; }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override;

  /// Propagates the registry into the evolutionary search and the predictor
  /// so their internal instruments share the run's registry.
  void set_metrics(telemetry::MetricsRegistry* metrics) override {
    sched::Scheduler::set_metrics(metrics);
    evolution_.set_metrics(metrics);
    loop_.set_metrics(metrics);
  }

  /// Propagates the profiler the same way (DESIGN.md §14): evolution
  /// operator spans and predictor fit spans land in the run's profile.
  void set_profiler(prof::Profiler* profiler) override {
    sched::Scheduler::set_profiler(profiler);
    evolution_.set_profiler(profiler);
    loop_.set_profiler(profiler);
  }

  // ---- introspection (tests, examples, benches) ----
  const predict::ProgressPredictor& predictor() const { return loop_.predictor(); }
  const BatchLimitManager& limits() const { return loop_.limits(); }
  Evolution& evolution() { return evolution_; }
  std::uint64_t evolution_rounds() const { return rounds_; }

 private:
  OnesConfig config_;
  PolicyLoop loop_;
  Evolution evolution_;
  std::uint64_t rounds_ = 0;
};

}  // namespace ones::core
