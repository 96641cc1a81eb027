#include "sched/fifo.hpp"

#include "sched/placement.hpp"

namespace ones::sched {

std::optional<cluster::Assignment> FifoScheduler::on_event(const ClusterState& state,
                                                           const SchedulerEvent& event) {
  if (event.kind == EventKind::EpochComplete) return std::nullopt;  // nothing to do
  // No free GPU means no placement can succeed for any queued job —
  // identical decisions to trying (and failing) each one in turn.
  if (state.current->idle_count() == 0) return std::nullopt;

  // The live schedule is copied only once a job is actually placed.
  std::optional<cluster::Assignment> next;
  for (const JobView* job : state.waiting_jobs()) {  // arrival order
    const cluster::Assignment& sched = next.has_value() ? *next : *state.current;
    if (sched.idle_count() == 0) break;
    const auto gpus = pick_idle_gpus(sched, *state.topology, job->spec.requested_gpus);
    if (gpus.empty()) {
      if (!backfill_) break;  // strict FIFO: head-of-line blocking
      continue;
    }
    if (!next.has_value()) next = *state.current;
    place_job_even(*next, job->spec.id, gpus, job->spec.requested_batch);
  }
  return next;
}

}  // namespace ones::sched
