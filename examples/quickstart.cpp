// Quickstart: schedule a small trace on a 16-GPU cluster with ONES and with
// a FIFO baseline, and compare the outcomes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --trace-dir=PATH to also write a structured trace per run
// (quickstart_ones.jsonl / .trace.json and quickstart_fifo.jsonl /
// .trace.json; the .trace.json files load in Perfetto or chrome://tracing).
// tests/trace_test.cpp pins a golden digest of the ONES JSONL stream.
//
// Pass --metrics-dir=PATH to also export each run's metrics registry
// (quickstart_ones.timeline.csv / .prom / .metrics.json and the same for
// FIFO — DESIGN.md §9).
//
// Pass --prof-dir=PATH to also collect host-time profiler spans per run
// (quickstart_ones.prof.json / quickstart_fifo.prof.json and a stderr span
// table — DESIGN.md §14); with --trace-dir the spans additionally merge
// into the .trace.json as a wall-clock track. None of the flags changes the
// simulated results.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/ones_scheduler.hpp"
#include "prof/export.hpp"
#include "prof/profiler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace ones;

  std::string trace_dir;
  std::string metrics_dir;
  std::string prof_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) {
      trace_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-dir=", 14) == 0) {
      metrics_dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--prof-dir=", 11) == 0) {
      prof_dir = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-dir=PATH] [--metrics-dir=PATH] [--prof-dir=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // A 4-node x 4-GPU cluster (16 GPUs) and 24 jobs arriving as a Poisson
  // process, drawn from the paper's Table 2 workload catalog.
  sched::SimulationConfig config;
  config.topology.num_nodes = 4;

  workload::TraceConfig trace_config;
  trace_config.num_jobs = 24;
  trace_config.mean_interarrival_s = 45.0;
  trace_config.seed = 7;
  const auto trace = workload::generate_trace(trace_config);

  std::printf("Trace: %d jobs on %d GPUs\n", trace_config.num_jobs,
              config.topology.num_nodes * config.topology.gpus_per_node);
  std::printf("%s\n", telemetry::format_summary_header().c_str());

  core::OnesScheduler ones_sched;
  sched::FifoScheduler fifo;
  const struct {
    const char* label;
    const char* stem;
    sched::Scheduler& policy;
  } runs[] = {{"ONES", "quickstart_ones", ones_sched}, {"FIFO", "quickstart_fifo", fifo}};

  for (const auto& run : runs) {
    const auto writer = trace_dir.empty()
                            ? nullptr
                            : std::make_unique<trace::RunTraceWriter>(trace_dir, run.stem);
    auto run_config = config;
    run_config.trace_sink = writer.get();
    telemetry::MetricsRegistry registry;
    if (!metrics_dir.empty()) run_config.metrics = &registry;
    std::optional<prof::Profiler> profiler;
    if (!prof_dir.empty()) {
      profiler.emplace();
      if (writer) profiler->enable_timeline();
      run_config.profiler = &*profiler;
    }
    sched::ClusterSimulation sim(run_config, trace, run.policy);
    sim.run();
    if (!metrics_dir.empty()) {
      telemetry::write_metrics_files(registry, metrics_dir, run.stem);
      // Host-scope (wall-clock) instruments are stderr-only by contract.
      std::fprintf(stderr, "[host metrics] %s\n%s", run.stem,
                   telemetry::format_host_metrics(registry).c_str());
    }
    if (profiler) {
      // Merge the host-span track into the Chrome trace only; the golden
      // JSONL digest never sees profiler output.
      if (writer) {
        for (const auto& ev : prof::chrome_span_events(*profiler)) {
          writer->chrome_raw_event(ev);
        }
      }
      prof::write_profile_file(prof_dir, run.stem, profiler->stats());
      std::fprintf(stderr, "[prof] %s\n%s", run.stem,
                   prof::format_profile(profiler->stats()).c_str());
    }
    std::printf("%s\n", telemetry::format_summary_row(sim.summary(run.label)).c_str());
    if (&run.policy == &ones_sched) {
      std::printf("  completed %zu/%d jobs, %llu schedule deployments, %llu evolution rounds\n",
                  sim.completed_jobs(), trace_config.num_jobs,
                  static_cast<unsigned long long>(sim.deployments()),
                  static_cast<unsigned long long>(ones_sched.evolution_rounds()));
    } else {
      std::printf("  completed %zu/%d jobs\n", sim.completed_jobs(), trace_config.num_jobs);
    }
  }
  if (!trace_dir.empty()) {
    std::printf("traces written to %s/\n", trace_dir.c_str());
  }
  if (!metrics_dir.empty()) {
    std::printf("metrics written to %s/\n", metrics_dir.c_str());
  }
  if (!prof_dir.empty()) {
    std::printf("profiles written to %s/\n", prof_dir.c_str());
  }
  return 0;
}
