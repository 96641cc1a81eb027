// Artifact contract tests (DESIGN.md §8–§10): every trace and metrics file a
// run writes is replayed or schema-checked.
//
// The checks run over the quickstart ONES and FIFO runs
// (examples/quickstart.cpp) and over one orchestrated grid of the
// pareto_energy scheduler kinds, and each check is shown to fail on a
// corrupted artifact, so a pass means something.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/ones_scheduler.hpp"
#include "exp/orchestrator.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace ones {
namespace {

namespace fs = std::filesystem;

/// A fresh directory named after the running test, so tests running in
/// parallel never share one.
class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              (std::string("ones_artifacts_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// True when all of `text` is one number.
bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(line);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

// Each check returns "" when the artifact passes, else its first problem.

/// `.jsonl`: the replay checker's invariants I1–I10 (DESIGN.md §8).
std::string check_trace(const std::string& text) {
  const auto report = trace::TraceReplayer().check_jsonl(text);
  return report.ok() ? "" : report.to_string();
}

/// `.timeline.csv`: the header, `t,series,value` rows with non-decreasing t,
/// and a `cluster_watts` series that starts at t=0 and stays positive
/// (DESIGN.md §10: the meter opens the run on an all-idle cluster, and node
/// base power keeps the draw above zero).
std::string check_timeline(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "t,series,value") {
    return "first line must be the header \"t,series,value\"";
  }
  double prev_t = 0.0;
  std::size_t row = 0, watts_rows = 0;
  while (std::getline(in, line)) {
    ++row;
    const std::string where = "row " + std::to_string(row) + ": ";
    const auto cols = split(line, ',');
    double t = 0.0, value = 0.0;
    if (cols.size() != 3 || !parse_number(cols[0], t) || cols[1].empty() ||
        !parse_number(cols[2], value)) {
      return where + "expected \"t,series,value\"";
    }
    if (row > 1 && t < prev_t) return where + "t decreases";
    prev_t = t;
    if (cols[1] == "cluster_watts") {
      if (watts_rows == 0 && t != 0.0) return where + "cluster_watts must start at t=0";
      if (value <= 0.0) return where + "cluster_watts must be positive";
      ++watts_rows;
    }
  }
  return watts_rows == 0 ? "no cluster_watts series" : "";
}

/// `.prom`: Prometheus text-format line grammar.
std::string check_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0, types = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const auto parts = split(line, ' ');
      if (parts.size() != 4 ||
          (parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram")) {
        return where + "malformed # TYPE line";
      }
      ++types;
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal
    // Sample line: name[{labels}] value
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 == line.size()) {
      return where + "expected \"name value\"";
    }
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (name.find('{') != std::string::npos && name.back() != '}') {
      return where + "unterminated label set";
    }
    double number = 0.0;
    if (value != "+Inf" && value != "-Inf" && value != "NaN" &&
        !parse_number(value, number)) {
      return where + "bad sample value";
    }
  }
  return types == 0 ? "no # TYPE lines" : "";
}

/// `.metrics.json`: the energy and fragmentation instruments (DESIGN.md
/// §10), each with a non-negative value, and overhead joules <= total.
std::string check_metrics_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const std::runtime_error& e) {
    return std::string("does not parse: ") + e.what();
  }
  struct Required {
    const char* name;
    const char* type;
    double value = 0.0;
  };
  Required required[] = {{"energy_cluster_joules_total", "counter"},
                         {"energy_overhead_joules_total", "counter"},
                         {"energy_cluster_watts", "gauge"},
                         {"cluster_frag_idle_gpus", "gauge"},
                         {"cluster_frag_scatter_index", "gauge"}};
  for (Required& r : required) {
    const JsonValue* entry = doc.find(r.name);
    const JsonValue* type = entry != nullptr ? entry->find("type") : nullptr;
    const JsonValue* value = entry != nullptr ? entry->find("value") : nullptr;
    if (type == nullptr || type->string != r.type || value == nullptr ||
        value->kind != JsonValue::Kind::Number || value->number < 0.0) {
      return std::string("needs a ") + r.type + " \"" + r.name +
             "\" with a non-negative value";
    }
    r.value = value->number;
  }
  if (required[1].value > required[0].value) {
    return "energy_overhead_joules_total exceeds energy_cluster_joules_total";
  }
  return "";
}

/// Every artifact of the run written under `dir` as `stem`, one problem per
/// line; "" when all pass.
std::string check_run(const fs::path& dir, const std::string& stem) {
  const std::pair<const char*, std::string (*)(const std::string&)> checks[] = {
      {".jsonl", check_trace},
      {".timeline.csv", check_timeline},
      {".prom", check_prometheus},
      {".metrics.json", check_metrics_json}};
  std::string problems;
  for (const auto& [ext, check] : checks) {
    const fs::path path = dir / (stem + ext);
    const std::string why = fs::exists(path) ? check(read_file(path)) : "missing";
    if (!why.empty()) problems += stem + ext + ": " + why + "\n";
  }
  return problems;
}

/// The quickstart scenario (examples/quickstart.cpp) under `policy`, with its
/// trace and metrics files written to `dir` as `stem`.
void run_quickstart(sched::Scheduler& policy, const fs::path& dir, const std::string& stem) {
  sched::SimulationConfig config;
  config.topology.num_nodes = 4;
  workload::TraceConfig tc;
  tc.num_jobs = 24;
  tc.mean_interarrival_s = 45.0;
  tc.seed = 7;
  const auto jobs = workload::generate_trace(tc);
  trace::RunTraceWriter writer(dir.string(), stem);
  telemetry::MetricsRegistry registry;
  config.trace_sink = &writer;
  config.metrics = &registry;
  sched::ClusterSimulation sim(config, jobs, policy);
  sim.run();
  ASSERT_TRUE(sim.all_completed());
  writer.close();
  telemetry::write_metrics_files(registry, dir.string(), stem);
}

TEST(Artifacts, QuickstartOnesAndFifoRunsPass) {
  const TempDir dir;
  core::OnesScheduler ones_sched;
  sched::FifoScheduler fifo;
  run_quickstart(ones_sched, dir.path(), "quickstart_ones");
  run_quickstart(fifo, dir.path(), "quickstart_fifo");
  EXPECT_EQ(check_run(dir.path(), "quickstart_ones"), "");
  EXPECT_EQ(check_run(dir.path(), "quickstart_fifo"), "");
}

TEST(Artifacts, ParetoEnergySchedulerGridPasses) {
  // bench/pareto_energy's scheduler kinds, through the orchestrator's
  // trace_dir / metrics_dir exports, on a small trace.
  core::OnesConfig energy_aware;
  energy_aware.evolution.lambda_energy = 1.0;
  const std::vector<exp::SchedulerSpec> kinds = {energy_aware, sched::PowerCapConfig{},
                                                 sched::OptimusConfig{},
                                                 sched::TiresiasConfig{}, exp::FifoConfig{}};
  sched::SimulationConfig config;
  config.topology.num_nodes = 2;
  config.topology.gpus_per_node = 4;
  workload::TraceConfig tc;
  tc.num_jobs = 10;
  tc.mean_interarrival_s = 45.0;
  tc.seed = 7;
  std::vector<exp::RunSpec> specs;
  for (const auto& kind : kinds) specs.push_back(exp::RunSpec{kind, config, tc});

  const TempDir dir;
  exp::GridOptions opt;
  opt.threads = 2;
  opt.use_cache = false;
  opt.progress = false;
  opt.trace_dir = dir.path().string();
  opt.metrics_dir = dir.path().string();
  exp::run_grid(specs, opt);
  for (const auto& spec : specs) {
    EXPECT_EQ(check_run(dir.path(), exp::cache_key(spec)), "")
        << exp::scheduler_kind(spec.scheduler);
  }
}

/// Write the quickstart FIFO run's artifacts, check that they pass, then
/// replace the `ext` file's text with `corrupt(text)` and return the
/// verdict on the corrupted run.
std::string check_corrupted(const std::string& ext,
                            const std::function<std::string(std::string)>& corrupt) {
  const TempDir dir;
  sched::FifoScheduler fifo;
  run_quickstart(fifo, dir.path(), "run");
  EXPECT_EQ(check_run(dir.path(), "run"), "");
  const fs::path file = dir.path() / ("run" + ext);
  write_file(file, corrupt(read_file(file)));
  return check_run(dir.path(), "run");
}

TEST(ArtifactsNegative, DecreasingTimelineFails) {
  const std::string why = check_corrupted(
      ".timeline.csv", [](std::string text) { return text + "-1,busy_gpus,0\n"; });
  EXPECT_NE(why.find("run.timeline.csv: row"), std::string::npos) << why;
  EXPECT_NE(why.find("t decreases"), std::string::npos) << why;
}

TEST(ArtifactsNegative, PromSampleWithoutValueFails) {
  const std::string why = check_corrupted(
      ".prom", [](std::string text) { return text + "sim_events_fired\n"; });
  EXPECT_NE(why.find("run.prom: line"), std::string::npos) << why;
  EXPECT_NE(why.find("expected \"name value\""), std::string::npos) << why;
}

TEST(ArtifactsNegative, MetricsJsonWithoutClusterJoulesFails) {
  const std::string why = check_corrupted(".metrics.json", [](std::string text) {
    const std::string key = "\"energy_cluster_joules_total\"";
    const auto at = text.find(key);
    EXPECT_NE(at, std::string::npos);
    return text.replace(at, key.size(), "\"energy_cluster_joules_renamed\"");
  });
  EXPECT_NE(why.find("run.metrics.json: needs a counter \"energy_cluster_joules_total\""),
            std::string::npos)
      << why;
}

TEST(ArtifactsNegative, JsonlBreakingReplayInvariantFails) {
  // Dropping the opening run_begin record breaks I1 (framing).
  const std::string why = check_corrupted(".jsonl", [](std::string text) {
    EXPECT_NE(text.find("run_begin"), std::string::npos);
    return text.substr(text.find('\n') + 1);
  });
  EXPECT_NE(why.find("run.jsonl: "), std::string::npos) << why;
  EXPECT_NE(why.find("run_begin"), std::string::npos) << why;
}

}  // namespace
}  // namespace ones
