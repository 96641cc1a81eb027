// Shortest-Remaining-Processing-Time oracle baseline.
//
// Preemptive SRPT with ground-truth remaining work (via the simulator's
// oracle hook). No real scheduler can implement this — it serves as an
// upper bound on what job-length-aware prioritization alone can achieve
// with fixed, user-requested job sizes. The paper's SRUF objective (§3.2.1)
// extends SRPT; comparing ONES against this oracle separates the benefit of
// batch-size elasticity from the benefit of knowing job lengths.
#pragma once

#include "sched/scheduler.hpp"

namespace ones::sched {

class SrtfOracleScheduler : public Scheduler {
 public:
  std::string name() const override { return "SRTF*"; }

  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override;
};

}  // namespace ones::sched
