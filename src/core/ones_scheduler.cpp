#include "core/ones_scheduler.hpp"

#include <string>
#include <utility>

#include "common/expect.hpp"

namespace ones::core {

PolicyLoop::PolicyLoop(const BatchPolicyConfig& policy,
                       const predict::PredictorConfig& predictor, bool use_predictor)
    : predictor_(predictor), limits_(policy), use_predictor_(use_predictor) {}

EvolutionContext PolicyLoop::begin(const sched::ClusterState& state,
                                   const sched::SchedulerEvent& event) {
  // Bookkeeping for the policy state machines (§3.3.2) and the predictor.
  switch (event.kind) {
    case sched::EventKind::JobArrival: {
      const sched::JobView* v = state.job(event.job);
      ONES_EXPECT(v != nullptr);
      limits_.on_job_arrival(*v, state.now);
      break;
    }
    case sched::EventKind::EpochComplete: {
      const sched::JobView* v = state.job(event.job);
      ONES_EXPECT(v != nullptr);
      limits_.on_epoch_complete(*v);
      break;
    }
    case sched::EventKind::JobComplete: {
      const sched::JobView* v = state.job(event.job);
      ONES_EXPECT(v != nullptr);
      // Aborted jobs never converged; their truncated histories would teach
      // the predictor wrong totals (§2.1's abnormal-ending pitfall).
      if (use_predictor_ && !v->aborted) predictor_.observe_completed_job(*v);
      limits_.on_completed(event.job);
      break;
    }
    case sched::EventKind::Timer:
      break;
    case sched::EventKind::CapacityChange:
      break;  // no per-job bookkeeping; the search sees the new health map
  }
  return make_context(state, use_predictor_ ? &predictor_ : nullptr, &limits_);
}

bool PolicyLoop::ready(const sched::ClusterState& state,
                       const sched::SchedulerEvent& event) const {
  // Immediate response to workload changes: freed GPUs (completion) and new
  // jobs must not wait for the per-epoch pacing (§2.1's critique of
  // interval-based schedulers).
  if (event.kind == sched::EventKind::JobComplete ||
      event.kind == sched::EventKind::JobArrival ||
      event.kind == sched::EventKind::CapacityChange) {
    return true;
  }
  if (state.current->idle_count() > 0 && !state.waiting_jobs().empty()) {
    return true;
  }
  // Pacing rule (§3.2.2 "Update"): every running job must have completed at
  // least one epoch since the last deployed schedule.
  for (const sched::JobView* v : state.running_jobs()) {
    auto it = epochs_at_deploy_.find(v->spec.id);
    if (it != epochs_at_deploy_.end() && v->epochs_completed <= it->second) {
      return false;
    }
  }
  return true;
}

std::optional<cluster::Assignment> PolicyLoop::commit(const sched::ClusterState& state,
                                                      cluster::Assignment best) {
  if (best == *state.current) return std::nullopt;

  // Resume / preemption policy bookkeeping against the schedule we are about
  // to deploy.
  for (JobId j : state.current->running_jobs()) {
    if (best.gpu_count(j) == 0) {
      const sched::JobView* v = state.job(j);
      ONES_EXPECT(v != nullptr);
      if (v->status != sched::JobStatus::Completed) {
        limits_.on_preempted(*v, state.current->global_batch(j));
      }
    }
  }
  for (const sched::JobView* v : state.waiting_jobs()) {
    if (best.gpu_count(v->spec.id) == 0) {
      limits_.on_left_waiting(*v);  // asked for service, still waiting
    }
  }

  epochs_at_deploy_.clear();
  for (JobId j : best.running_jobs()) {
    const sched::JobView* v = state.job(j);
    ONES_EXPECT(v != nullptr);
    epochs_at_deploy_.emplace(j, v->epochs_completed);
  }
  return best;
}

OnesScheduler::OnesScheduler(const OnesConfig& config)
    : config_(config),
      loop_(config.policy, config.predictor, config.use_predictor),
      evolution_(config.evolution) {}

std::optional<cluster::Assignment> OnesScheduler::on_event(
    const sched::ClusterState& state, const sched::SchedulerEvent& event) {
  const EvolutionContext ctx = loop_.begin(state, event);
  for (int r = 0; r < config_.evolution.rounds_per_event; ++r) {
    evolution_.step(ctx);
    ++rounds_;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("ones_evolution_rounds_total")
        .add(static_cast<double>(config_.evolution.rounds_per_event));
  }
  if (trace_sink_ != nullptr && config_.evolution.rounds_per_event > 0) {
    // Appended rather than `"+" + ...`: GCC 12 at -O3 reports a false
    // -Wrestrict on prefix string insertion.
    std::string detail = "+";
    detail += std::to_string(config_.evolution.rounds_per_event);
    detail += " rounds";
    trace_sink_->on_record({.kind = trace::RecordKind::EvolutionStep,
                            .t = state.now,
                            .count = rounds_,
                            .detail = std::move(detail)});
  }

  if (!loop_.ready(state, event)) return std::nullopt;
  // Only now: best() refreshes the population, which draws from the RNG.
  return loop_.commit(state, evolution_.best(ctx));
}

}  // namespace ones::core
