#include "sched/tiresias.hpp"

#include <algorithm>

#include "sched/placement.hpp"

namespace ones::sched {

int TiresiasScheduler::queue_of(const JobView& job) const {
  const double service = static_cast<double>(job.spec.requested_gpus) * job.exec_time_s;
  int q = 0;
  for (double threshold : config_.queue_thresholds) {
    if (service < threshold) return q;
    ++q;
  }
  return q;
}

std::optional<cluster::Assignment> TiresiasScheduler::on_event(const ClusterState& state,
                                                               const SchedulerEvent& event) {
  (void)event;
  // Priority: lower queue first, JobId order within a queue. Walking the
  // arrival-ordered active list into one bucket per queue leaves each bucket
  // already in JobId order unless ids arrived out of order (a loaded trace),
  // so a bucket is sorted only when it has to be.
  buckets_.resize(config_.queue_thresholds.size() + 1);
  for (auto& bucket : buckets_) bucket.clear();
  for (const JobView* job : state.active_jobs()) {
    int q = queue_of(*job);
    if (config_.promote_knob > 0.0 && job->status == JobStatus::Waiting) {
      const double waited = state.now - job->spec.arrival_time_s - job->exec_time_s;
      if (job->exec_time_s > 0.0 && waited > config_.promote_knob * job->exec_time_s) {
        q = 0;  // STARVE-FREE promotion
      }
    }
    buckets_[static_cast<std::size_t>(q)].push_back(job);
  }
  const auto by_id = [](const JobView* a, const JobView* b) { return a->spec.id < b->spec.id; };
  ordered_.clear();
  for (auto& bucket : buckets_) {
    if (!std::is_sorted(bucket.begin(), bucket.end(), by_id)) {
      std::sort(bucket.begin(), bucket.end(), by_id);
    }
    ordered_.insert(ordered_.end(), bucket.begin(), bucket.end());
  }
  fit_requested(state, ordered_, plan_);
  return deploy_plan(state, plan_);
}

}  // namespace ones::sched
