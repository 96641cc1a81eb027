// tools/bench_diff classification tests: deterministic metric drift is a
// regression, host-time growth warns (unless escalated), profile spans are
// warn-only, and malformed reports are rejected.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "diff.hpp"

using namespace ones;
using bench_diff::ReportDiff;
using bench_diff::Severity;
using bench_diff::Thresholds;

namespace {

/// A minimal schema-1 report with one deterministic metric, host wall time,
/// one host metric and one profile span.
std::string report(double avg_jct, double wall_s, double real_ns, double span_ns) {
  return "{\"schema\":1,\"bench\":\"unit\",\"threads\":2,\"seeds\":1,"
         "\"metrics\":{\"avg_jct.ONES\":" + json_double(avg_jct) + "},"
         "\"host\":{\"wall_seconds\":" + json_double(wall_s) +
         ",\"peak_rss_mib\":100.0,\"metrics\":{\"real_ns.Pop\":" +
         json_double(real_ns) + "}},"
         "\"profile\":[{\"path\":\"decision\",\"count\":4,\"total_ns\":" +
         json_double(span_ns) + ",\"self_ns\":1}]}";
}

ReportDiff diff(const std::string& old_json, const std::string& new_json,
                const Thresholds& t = Thresholds{}) {
  return bench_diff::diff_reports(parse_json(old_json), parse_json(new_json), t);
}

TEST(BenchDiff, IdenticalReportsAreClean) {
  const std::string r = report(100.0, 10.0, 50.0, 1000.0);
  const ReportDiff d = diff(r, r);
  EXPECT_EQ(d.regressions, 0);
  EXPECT_EQ(d.warnings, 0);
  EXPECT_TRUE(d.deltas.empty());
  EXPECT_EQ(d.bench, "unit");
}

TEST(BenchDiff, MetricDriftIsARegression) {
  // An injected 1% metric regression must be flagged (acceptance criterion:
  // nonzero exit in the CLI, counted as a regression here).
  const ReportDiff d = diff(report(100.0, 10.0, 50.0, 1000.0),
                            report(101.0, 10.0, 50.0, 1000.0));
  ASSERT_EQ(d.regressions, 1);
  EXPECT_EQ(d.deltas[0].key, "metrics/avg_jct.ONES");
  EXPECT_EQ(d.deltas[0].severity, Severity::Regression);
  // Determinism cuts both ways: an "improved" metric is still drift.
  EXPECT_EQ(diff(report(101.0, 10.0, 50.0, 1000.0),
                 report(100.0, 10.0, 50.0, 1000.0))
                .regressions,
            1);
}

TEST(BenchDiff, MissingMetricIsARegressionNewMetricIsInfo) {
  const std::string base = report(100.0, 10.0, 50.0, 1000.0);
  std::string extra = base;
  const std::string needle = "\"metrics\":{";
  extra.replace(extra.find(needle), needle.size(),
                "\"metrics\":{\"p90_jct.ONES\":7.0,");
  // Metric present only in old: regression.
  const ReportDiff gone = diff(extra, base);
  EXPECT_EQ(gone.regressions, 1);
  EXPECT_EQ(gone.deltas[0].note, "only in old");
  // Metric present only in new: informational.
  const ReportDiff added = diff(base, extra);
  EXPECT_EQ(added.regressions, 0);
  EXPECT_EQ(added.warnings, 0);
  ASSERT_EQ(added.deltas.size(), 1u);
  EXPECT_EQ(added.deltas[0].severity, Severity::Info);
  EXPECT_EQ(added.deltas[0].note, "only in new");
}

TEST(BenchDiff, HostGrowthWarnsOnly) {
  // Wall time doubles, a host metric grows 10x, a profile span grows 2x:
  // all warn, none fail, exit stays clean by default.
  const ReportDiff d = diff(report(100.0, 10.0, 50.0, 1000.0),
                            report(100.0, 20.0, 500.0, 2000.0));
  EXPECT_EQ(d.regressions, 0);
  EXPECT_EQ(d.warnings, 3);
  for (const auto& delta : d.deltas) EXPECT_EQ(delta.severity, Severity::Warning);
}

TEST(BenchDiff, HostImprovementIsNeverFlagged) {
  const ReportDiff d = diff(report(100.0, 20.0, 500.0, 2000.0),
                            report(100.0, 10.0, 50.0, 1000.0));
  EXPECT_EQ(d.regressions, 0);
  EXPECT_EQ(d.warnings, 0);
}

TEST(BenchDiff, HostGrowthWithinToleranceIsClean) {
  Thresholds t;
  t.host_rel_tol = 0.25;
  // +20% wall time sits inside the default 25% band.
  const ReportDiff d = diff(report(100.0, 10.0, 50.0, 1000.0),
                            report(100.0, 12.0, 50.0, 1000.0), t);
  EXPECT_EQ(d.warnings, 0);
}

TEST(BenchDiff, FailOnHostEscalatesToRegression) {
  Thresholds t;
  t.fail_on_host = true;
  const ReportDiff d = diff(report(100.0, 10.0, 50.0, 1000.0),
                            report(100.0, 20.0, 50.0, 1000.0), t);
  EXPECT_EQ(d.regressions, 1);
  EXPECT_EQ(d.warnings, 0);
}

TEST(BenchDiff, MetricToleranceIsConfigurable) {
  Thresholds t;
  t.metric_rel_tol = 0.05;
  EXPECT_EQ(diff(report(100.0, 10.0, 50.0, 1000.0),
                 report(101.0, 10.0, 50.0, 1000.0), t)
                .regressions,
            0);
  EXPECT_EQ(diff(report(100.0, 10.0, 50.0, 1000.0),
                 report(110.0, 10.0, 50.0, 1000.0), t)
                .regressions,
            1);
}

TEST(BenchDiff, RejectsMalformedReports) {
  const std::string good = report(100.0, 10.0, 50.0, 1000.0);
  EXPECT_THROW((void)diff("{\"schema\":2,\"bench\":\"unit\",\"metrics\":{}}", good),
               std::runtime_error);
  EXPECT_THROW((void)diff("{\"bench\":\"unit\",\"metrics\":{}}", good),
               std::runtime_error);
  EXPECT_THROW((void)diff(good, "{\"schema\":1,\"bench\":\"unit\"}"),
               std::runtime_error);
  // Comparing two different benches is a usage error, not a regression.
  std::string other = good;
  other.replace(other.find("\"unit\""), 6, "\"misc\"");
  EXPECT_THROW((void)diff(good, other), std::runtime_error);
}

TEST(BenchDiff, FormatMentionsEveryFlaggedDelta) {
  const ReportDiff d = diff(report(100.0, 10.0, 50.0, 1000.0),
                            report(105.0, 30.0, 50.0, 1000.0));
  const std::string text = bench_diff::format_diff(d);
  EXPECT_NE(text.find("REGRESSION metrics/avg_jct.ONES"), std::string::npos) << text;
  EXPECT_NE(text.find("WARN host/wall_seconds"), std::string::npos) << text;
}

TEST(BenchDiff, DeeplyNestedReportExitsTwo) {
  // The CLI reports a nesting bomb as unreadable input (exit 2), not a crash.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ones_bench_diff_nested";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path good = dir / "BENCH_good.json";
  const fs::path bomb = dir / "BENCH_bomb.json";
  std::ofstream(good) << report(100.0, 10.0, 50.0, 1000.0);
  std::ofstream(bomb) << std::string(2'000'000, '[');
  const auto exit_code = [](const fs::path& old_file, const fs::path& new_file) {
    const std::string cmd = std::string(ONES_BENCH_DIFF_BIN) + " " + old_file.string() +
                            " " + new_file.string() + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(exit_code(good, good), 0);
  EXPECT_EQ(exit_code(good, bomb), 2);
  EXPECT_EQ(exit_code(bomb, good), 2);
  fs::remove_all(dir);
}

}  // namespace
