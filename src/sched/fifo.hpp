// First-In-First-Out gang scheduler (reference baseline).
//
// Jobs start in arrival order with exactly their requested GPU count and
// batch size; no preemption, no elasticity. Strict FIFO exhibits
// head-of-line blocking: a large waiting job blocks smaller jobs behind it
// even when the cluster has idle GPUs. This is the classic behaviour the
// paper's fragmentation discussion (§2.2) motivates against.
#pragma once

#include "sched/scheduler.hpp"

namespace ones::sched {

class FifoScheduler : public Scheduler {
 public:
  /// With `backfill` enabled, jobs behind a blocked head may start if they
  /// fit (conservative backfill), trading strict fairness for utilization.
  explicit FifoScheduler(bool backfill = false) : backfill_(backfill) {}

  std::string name() const override { return backfill_ ? "FIFO-BF" : "FIFO"; }

  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override;

 private:
  bool backfill_;
};

}  // namespace ones::sched
