// TraceReplayer coverage: every scheduler's full run must produce a
// structurally legal trace (GPU exclusivity, capacity, lifecycle, batch
// continuity, pause bracketing — DESIGN.md §8), including runs with injected
// job failures; and each invariant must actually fire on a violating stream.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ones_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace ones::trace {
namespace {

struct NamedScheduler {
  const char* name;
  std::function<std::unique_ptr<sched::Scheduler>()> make;
};

std::vector<NamedScheduler> all_schedulers() {
  return {
      {"FIFO", [] { return std::make_unique<sched::FifoScheduler>(); }},
      {"SRTF", [] { return std::make_unique<sched::SrtfOracleScheduler>(); }},
      {"Tiresias", [] { return std::make_unique<sched::TiresiasScheduler>(); }},
      {"Optimus", [] { return std::make_unique<sched::OptimusScheduler>(); }},
      {"ONES", [] { return std::make_unique<core::OnesScheduler>(); }},
  };
}

sched::SimulationConfig small_config() {
  sched::SimulationConfig c;
  c.topology.num_nodes = 2;
  return c;
}

workload::TraceConfig shared_trace(int jobs, double interarrival,
                                   std::uint64_t seed) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

std::vector<TraceRecord> run_traced(sched::Scheduler& scheduler,
                                    const workload::TraceConfig& tc) {
  RecordBufferSink buffer;
  auto config = small_config();
  config.trace_sink = &buffer;
  const auto trace = workload::generate_trace(tc);
  sched::ClusterSimulation sim(config, trace, scheduler);
  sim.run();
  EXPECT_TRUE(sim.all_completed()) << scheduler.name();
  return buffer.records();
}

TEST(TraceInvariants, EverySchedulerProducesALegalTrace) {
  // The integration-test workload (tests/integration_test.cpp).
  const auto tc = shared_trace(16, 12.0, 5);
  for (const auto& nf : all_schedulers()) {
    const auto scheduler = nf.make();
    const auto records = run_traced(*scheduler, tc);
    const ReplayReport report = TraceReplayer{}.check(records);
    EXPECT_TRUE(report.ok()) << nf.name << ":\n" << report.to_string();
    EXPECT_EQ(report.jobs, 16u) << nf.name;
    EXPECT_GT(report.records, 0u) << nf.name;
  }
}

TEST(TraceInvariants, FailureInjectionTracesStayLegal) {
  // The failure-injection scenario (tests/failure_test.cpp): 40% of jobs end
  // abnormally mid-run. Aborts must still release GPUs and close brackets.
  workload::TraceConfig tc = shared_trace(20, 12.0, 3);
  tc.abnormal_fraction = 0.4;
  tc.abnormal_mean_lifetime_s = 120.0;
  for (const auto& nf : all_schedulers()) {
    const auto scheduler = nf.make();
    const auto records = run_traced(*scheduler, tc);
    const ReplayReport report = TraceReplayer{}.check(records);
    EXPECT_TRUE(report.ok()) << nf.name << ":\n" << report.to_string();
    std::size_t aborted = 0;
    for (const auto& r : records) {
      if (r.kind == RecordKind::JobCompleted && r.aborted) ++aborted;
    }
    EXPECT_GT(aborted, 0u) << nf.name;
  }
}

// --- Negative coverage: each invariant fires on a violating stream. -------

/// Minimal legal single-job stream; the negative tests each break one thing.
std::vector<TraceRecord> legal_stream() {
  std::vector<TraceRecord> rs;
  const auto add = [&rs](TraceRecord r) {
    r.seq = rs.size();
    rs.push_back(std::move(r));
  };
  add({.kind = RecordKind::RunBegin, .gpus = 4, .global_batch = 1, .detail = "TEST"});
  add({.kind = RecordKind::JobSubmitted, .t = 1.0, .job = 0, .detail = "BERT"});
  add({.kind = RecordKind::JobAdmitted, .t = 1.0, .job = 0, .detail = ""});
  add({.kind = RecordKind::JobPlaced,
       .t = 1.0,
       .job = 0,
       .gpus = 2,
       .global_batch = 32,
       .detail = "0,1"});
  add({.kind = RecordKind::ElasticPaused,
       .t = 5.0,
       .job = 0,
       .cost_s = 2.0,
       .detail = "elastic"});
  add({.kind = RecordKind::BatchResized,
       .t = 5.0,
       .job = 0,
       .global_batch = 64,
       .old_batch = 32,
       .detail = ""});
  add({.kind = RecordKind::JobReconfigured,
       .t = 5.0,
       .job = 0,
       .gpus = 4,
       .global_batch = 64,
       .old_gpus = 2,
       .old_batch = 32,
       .cost_s = 2.0,
       .detail = "0,1,2,3"});
  add({.kind = RecordKind::ElasticResumed, .t = 7.0, .job = 0, .detail = ""});
  add({.kind = RecordKind::JobCompleted, .t = 9.0, .job = 0, .detail = ""});
  add({.kind = RecordKind::RunEnd, .t = 9.0, .count = 1, .detail = ""});
  return rs;
}

bool any_issue_contains(const ReplayReport& report, const std::string& needle) {
  for (const auto& issue : report.issues) {
    if (issue.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(TraceInvariantsNegative, BaselineStreamIsLegal) {
  const ReplayReport report = TraceReplayer{}.check(legal_stream());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(TraceInvariantsNegative, MissingRunBegin) {
  auto rs = legal_stream();
  rs.erase(rs.begin());
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "run_begin")) << report.to_string();
}

TEST(TraceInvariantsNegative, TimestampRegression) {
  auto rs = legal_stream();
  rs[4].t = 0.5;  // pause before the placement's t=1.0
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "precedes")) << report.to_string();
}

TEST(TraceInvariantsNegative, EngineSeqRegression) {
  auto rs = legal_stream();
  rs[4].seq = 0;
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "seq")) << report.to_string();
}

TEST(TraceInvariantsNegative, DoubleAllocationAcrossJobs) {
  auto rs = legal_stream();
  // A second job claims GPU 1 while job 0 holds it.
  const double t = 2.0;
  std::vector<TraceRecord> extra;
  extra.push_back({.kind = RecordKind::JobSubmitted, .t = t, .job = 1, .detail = "VGG16"});
  extra.push_back({.kind = RecordKind::JobAdmitted, .t = t, .job = 1, .detail = ""});
  extra.push_back({.kind = RecordKind::JobPlaced,
                   .t = t,
                   .job = 1,
                   .gpus = 2,
                   .global_batch = 16,
                   .detail = "1,2"});
  for (auto& r : extra) r.seq = 4;
  rs.insert(rs.begin() + 4, extra.begin(), extra.end());
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "double-allocated")) << report.to_string();
}

TEST(TraceInvariantsNegative, PlacementExceedsCapacity) {
  auto rs = legal_stream();
  rs[3].gpus = 6;
  rs[3].global_batch = 64;
  rs[3].detail = "0,1,2,3,4,5";  // cluster has 4 GPUs
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "out of range")) << report.to_string();
}

TEST(TraceInvariantsNegative, PlacedWithoutAdmission) {
  auto rs = legal_stream();
  rs.erase(rs.begin() + 2);  // drop job_admitted
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "admitted")) << report.to_string();
}

TEST(TraceInvariantsNegative, ReconfigureWithoutPause) {
  auto rs = legal_stream();
  rs.erase(rs.begin() + 4);  // drop elastic_paused
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "elastic_paused")) << report.to_string();
}

TEST(TraceInvariantsNegative, UnannouncedBatchChange) {
  auto rs = legal_stream();
  rs.erase(rs.begin() + 5);  // drop batch_resized; reconfigure still changes B
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "batch")) << report.to_string();
}

TEST(TraceInvariantsNegative, UnclosedPauseBracket) {
  auto rs = legal_stream();
  rs.erase(rs.begin() + 7);  // drop elastic_resumed
  rs.erase(rs.begin() + 7);  // drop job_completed: bracket now never closes
  rs.back().count = 0;
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "pause")) << report.to_string();
}

TEST(TraceInvariantsNegative, EpochInsidePause) {
  auto rs = legal_stream();
  const TraceRecord epoch{.kind = RecordKind::SimEvent,
                          .t = 6.0,
                          .job = 0,
                          .seq = 7,
                          .detail = "epoch"};
  rs.insert(rs.begin() + 7, epoch);
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "epoch inside")) << report.to_string();
}

TEST(TraceInvariantsNegative, RunEndCountMismatch) {
  auto rs = legal_stream();
  rs.back().count = 2;
  const ReplayReport report = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(report, "finished jobs")) << report.to_string();
}

TEST(TraceInvariantsNegative, StrandedJobsAreLegalButCounted) {
  // A run that hits max_sim_time leaves jobs running; the trace is
  // structurally legal (the driver warns separately) as long as run_end's
  // count reflects reality.
  auto rs = legal_stream();
  rs.erase(rs.begin() + 8);  // job 0 never completes
  rs.back().count = 0;
  const ReplayReport honest = TraceReplayer{}.check(rs);
  EXPECT_TRUE(honest.ok()) << honest.to_string();
  rs.back().count = 1;  // ...but lying about it is caught
  const ReplayReport lying = TraceReplayer{}.check(rs);
  EXPECT_TRUE(any_issue_contains(lying, "finished jobs")) << lying.to_string();
}

TEST(TraceInvariantsNegative, CorruptJsonlLineIsReportedNotThrown) {
  std::string text;
  for (const auto& r : legal_stream()) text += to_jsonl_line(r) + "\n";
  text += "{\"kind\":\"job_placed\",garbage\n";
  const ReplayReport report = TraceReplayer{}.check_jsonl(text);
  EXPECT_TRUE(any_issue_contains(report, "unparseable")) << report.to_string();
}

}  // namespace
}  // namespace ones::trace
