// Declarative description of one experiment run.
//
// A RunSpec is the unit the orchestrator fans out: a typed scheduler
// configuration, a simulation configuration, and a trace configuration. It
// is plain data. `make_scheduler` builds a FRESH scheduler from it for every
// run (parallel runs share no mutable state), and its canonical text
// serialization — every field of all three parts — hashes into the on-disk
// result cache key, so two specs collide iff they describe the same
// simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "core/ones_scheduler.hpp"
#include "drl/drl_scheduler.hpp"
#include "sched/optimus.hpp"
#include "sched/powercap.hpp"
#include "sched/scheduler.hpp"
#include "sched/simulation.hpp"
#include "sched/tiresias.hpp"
#include "workload/trace.hpp"

namespace ones::exp {

/// FIFO gang scheduling; `backfill` selects FIFO-BF.
struct FifoConfig {
  bool backfill = false;
};

/// The SRTF oracle (no knobs).
struct SrtfConfig {};

/// Every scheduler configuration the grid benches run. The alternative
/// picks the scheduler; its fields are its knobs, and all of them are key
/// material.
using SchedulerSpec =
    std::variant<core::OnesConfig, drl::DrlConfig, sched::TiresiasConfig,
                 sched::OptimusConfig, sched::PowerCapConfig, FifoConfig, SrtfConfig>;

/// Build a fresh scheduler for one run. DRL trains its policy here (offline,
/// deterministic from DrlConfig::seed), so only executed runs pay for it.
std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec);

/// Short, filesystem-safe tag of the spec's alternative ("ones", "fifo", ...).
std::string scheduler_kind(const SchedulerSpec& spec);

/// Bump when the canonical serialization or the RunResult JSON layout
/// changes; old cache entries then miss instead of deserializing garbage.
/// v5: the typed SchedulerSpec (every scheduler knob) replaced the
/// scheduler-name/variant tags.
inline constexpr int kCacheSchemaVersion = 5;

struct RunSpec {
  SchedulerSpec scheduler;
  sched::SimulationConfig sim;
  workload::TraceConfig trace;
};

/// FNV-1a 64-bit hash (offset basis 14695981039346656037, prime 1099511628211).
std::uint64_t fnv1a64(const std::string& data);

/// Stable key=value rendering of every result-affecting field of the spec
/// (plus the schema version). Doubles use %.17g so distinct values never
/// alias.
std::string canonical_serialize(const RunSpec& spec);

/// Cache key: the scheduler kind (human-debuggable) plus the 16-hex-digit
/// FNV-1a hash of the canonical serialization.
std::string cache_key(const RunSpec& spec);

}  // namespace ones::exp
