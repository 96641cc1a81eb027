// Parallel experiment orchestration.
//
// `run_grid` fans a declarative grid of RunSpecs out over a pool of
// std::thread workers and returns one RunResult per spec, IN SPEC ORDER.
//
// Determinism argument (see DESIGN.md §7): each run constructs a fresh
// scheduler from its SchedulerSpec, generates its own trace from the spec's
// seed, and owns its ClusterSimulation — all randomness flows from per-run
// `ones::Rng` seeds, and the simulator has no mutable global state. Threads
// only race for *which* run to execute next; results land in a pre-sized
// vector slot indexed by spec position, so aggregation order — and therefore
// every downstream number — is independent of the thread count and of
// completion order. `run_grid(specs, threads=N)` is bit-identical to
// `threads=1` for every N.
#pragma once

#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/result.hpp"
#include "exp/run_spec.hpp"
#include "prof/profiler.hpp"
#include "telemetry/registry.hpp"
#include "trace/sink.hpp"

namespace ones::exp {

struct GridOptions {
  /// Worker threads; must be >= 1. More threads than (uncached) specs is
  /// fine — the extras exit immediately.
  int threads = 1;
  bool use_cache = true;
  std::string cache_dir = ".ones-cache";
  /// Progress / ETA lines on stderr.
  bool progress = true;
  /// When non-empty, every EXECUTED run writes a structured trace pair
  /// (`<cache_key>.jsonl` + `<cache_key>.trace.json`) into this directory.
  /// Cache-served runs are not re-simulated, so they emit nothing. Tracing
  /// never affects results, and is therefore not part of the cache key.
  std::string trace_dir;
  /// When non-empty, every EXECUTED run owns a MetricsRegistry and exports
  /// `<cache_key>.timeline.csv` + `.prom` + `.metrics.json` into this
  /// directory (DESIGN.md §9). Exactly the tracing contract: cache-served
  /// runs emit nothing, metrics never affect results, and the directory is
  /// not part of the cache key.
  std::string metrics_dir;
  /// Optional bench-level registry (not owned). After the grid completes,
  /// run_grid records the orchestrator cache statistics into it:
  /// `exp_cache_{hits,misses,demotions,stores}_total` and
  /// `exp_runs_executed_total`.
  telemetry::MetricsRegistry* registry = nullptr;
  /// When non-empty, every EXECUTED run owns a host-time prof::Profiler and
  /// exports `<cache_key>.prof.json` into this directory (DESIGN.md §14).
  /// Same contract as trace_dir/metrics_dir: cache-served runs emit nothing,
  /// profiling never affects results, and the directory is NOT a cache-key
  /// input. When trace_dir is also set, each run's span timeline is merged
  /// into its `.trace.json` as a separate wall-clock process track (the
  /// deterministic `.jsonl` stream is untouched).
  std::string prof_dir;
  /// Optional grid-level rollup (not owned). When non-null, profiling is on
  /// even without prof_dir and every run's spans (plus the orchestrator's
  /// own `cache.read`/`cache.write` spans) are aggregated into it by span
  /// path — a deterministic merge independent of thread count.
  prof::ProfileRollup* prof = nullptr;
};

/// Execute one simulation: build the scheduler from the spec's SchedulerSpec,
/// generate the trace, run, and collect metrics. (Also the body of each
/// orchestrator worker; exposed for benches that run a single config.)
/// `trace_sink`, when non-null, receives the run's structured trace;
/// `metrics`, when non-null, receives the run's instrument emissions;
/// `profiler`, when non-null, collects the run's host-time spans. None of
/// the three may change results (asserted in tests/exp_test.cpp).
RunResult execute_run(const RunSpec& spec, trace::TraceSink* trace_sink = nullptr,
                      telemetry::MetricsRegistry* metrics = nullptr,
                      prof::Profiler* profiler = nullptr);

/// Collect metrics from an already-constructed simulation setup (the legacy
/// single-run path used by light benches and examples).
RunResult run_simulation(const sched::SimulationConfig& config,
                         const std::vector<workload::JobSpec>& trace,
                         sched::Scheduler& scheduler);

/// Fan the grid out over `options.threads` workers. Preconditions
/// (ONES_EXPECT): non-empty grid and threads >= 1. The first exception
/// thrown by a worker aborts the remaining queue and is rethrown on the
/// calling thread.
std::vector<RunResult> run_grid(const std::vector<RunSpec>& specs,
                                const GridOptions& options = {});

/// Pool per-seed replicas of the same configuration into one RunResult:
/// distribution vectors are concatenated (grid order preserved), averages
/// and quantiles are recomputed over the pooled sample, and makespan /
/// utilization are averaged across seeds. `jct_by_job` is only kept for a
/// single run — job ids collide across seeds, so multi-seed paired tests
/// must pair per seed before pooling. Requires non-empty input.
RunResult pool_runs(const std::vector<RunResult>& runs);

}  // namespace ones::exp
