// Tests for the simulated-annealing scheduler and the trace CSV I/O.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/annealing.hpp"
#include "prof/profiler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace ones {
namespace {

sched::SimulationConfig small_config() {
  sched::SimulationConfig c;
  c.topology.num_nodes = 2;
  return c;
}

workload::TraceConfig trace_config(int jobs, double interarrival, std::uint64_t seed = 23) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

TEST(Annealing, Properties) {
  core::AnnealingScheduler s;
  EXPECT_EQ(s.name(), "ONES-SA");
  EXPECT_EQ(s.mechanism(), sched::ScalingMechanism::Elastic);
  EXPECT_DOUBLE_EQ(s.period_s(), 0.0);
}

TEST(Annealing, CompletesAllJobs) {
  core::AnnealingScheduler s;
  sched::ClusterSimulation sim(small_config(), workload::generate_trace(trace_config(12, 15)),
                               s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_GT(s.proposals(), 0u);
  EXPECT_GT(s.accepted(), 0u);
}

TEST(Annealing, TemperatureCoolsMonotonically) {
  core::AnnealingScheduler s;
  const double t0 = s.temperature();
  sched::ClusterSimulation sim(small_config(), workload::generate_trace(trace_config(8, 15)),
                               s);
  sim.run();
  EXPECT_LT(s.temperature(), t0);
  core::AnnealingConfig cfg;
  EXPECT_GE(s.temperature(), cfg.min_temperature);
}

TEST(Annealing, RespectsBatchLimitsViaSharedMachinery) {
  core::AnnealingScheduler s;
  const auto trace = workload::generate_trace(trace_config(10, 10, 29));
  sched::ClusterSimulation sim(small_config(), trace, s);
  sim.run();  // driver validation would throw on any violation
  EXPECT_TRUE(sim.all_completed());
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    for (std::size_t i = 1; i < v.epoch_log.size(); ++i) {
      const int prev = v.epoch_log[i - 1].global_batch;
      if (prev > 0) {
        EXPECT_LE(v.epoch_log[i].global_batch, 4 * prev);
      }
    }
  }
}

TEST(Annealing, ComparableToEvolutionOnEasyTrace) {
  // On a lightly loaded trace both searches should land in the same
  // ballpark (within 2x); the interesting gaps appear under contention
  // (see bench/search_strategies).
  const auto trace = workload::generate_trace(trace_config(10, 40, 31));
  double sa_jct;
  {
    core::AnnealingScheduler s;
    sched::ClusterSimulation sim(small_config(), trace, s);
    sim.run();
    sa_jct = telemetry::summarize("sa", sim.metrics(), 8).avg_jct;
  }
  EXPECT_GT(sa_jct, 0.0);
  EXPECT_LT(sa_jct, 4000.0);
}

// Decision pin for ONES-SA: a seeded contended run on 8 GPUs. The digest
// covers every job's metrics (as exact double bit patterns), the deployment
// count and the walk's proposal/acceptance counts, so any change to the
// policy loop, the operators' RNG draws or the scores moves it. Re-pin only
// for an intended decision change.
TEST(Annealing, DecisionsArePinned) {
  core::AnnealingScheduler s;
  sched::ClusterSimulation sim(small_config(),
                               workload::generate_trace(trace_config(14, 10, 41)), s);
  sim.run();
  ASSERT_TRUE(sim.all_completed());

  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a-64
  const auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_double = [&](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  for (JobId j : sim.metrics().job_ids()) {
    const telemetry::JobMetrics& m = sim.metrics().job(j);
    mix(static_cast<std::uint64_t>(j));
    mix_double(m.arrival_s);
    mix_double(m.completion_s);
    mix_double(m.first_start_s);
    mix_double(m.exec_time_s);
    mix(static_cast<std::uint64_t>(m.preemptions));
    mix(m.aborted ? 1 : 0);
  }
  mix(sim.deployments());
  mix(s.proposals());
  mix(s.accepted());
  EXPECT_EQ(h, 0x0accf0a948b3a77aULL) << std::hex << "digest 0x" << h;
}

TEST(Annealing, PredictorRefitsReachMetricsAndProfile) {
  telemetry::MetricsRegistry registry;
  prof::Profiler profiler;
  auto config = small_config();
  config.metrics = &registry;
  config.profiler = &profiler;
  core::AnnealingScheduler s;
  sched::ClusterSimulation sim(config, workload::generate_trace(trace_config(12, 15)), s);
  sim.run();
  ASSERT_TRUE(sim.all_completed());
  EXPECT_GT(registry.counter_value("predict_refits_total"), 0.0);
  std::uint64_t fits = 0;
  for (const prof::SpanStats& st : profiler.stats()) {
    if (st.path.ends_with("predict.fit")) fits += st.count;
  }
  EXPECT_GT(fits, 0u);
}

TEST(TraceIo, RoundTripsExactly) {
  auto tc = trace_config(20, 10);
  tc.abnormal_fraction = 0.3;
  const auto trace = workload::generate_trace(tc);
  std::stringstream ss;
  workload::write_trace_csv(ss, trace);
  const auto loaded = workload::read_trace_csv(ss);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].id, trace[i].id);
    EXPECT_EQ(loaded[i].variant.model_name, trace[i].variant.model_name);
    EXPECT_EQ(loaded[i].variant.dataset, trace[i].variant.dataset);
    EXPECT_EQ(loaded[i].variant.dataset_size, trace[i].variant.dataset_size);
    EXPECT_EQ(loaded[i].variant.num_classes, trace[i].variant.num_classes);
    EXPECT_DOUBLE_EQ(loaded[i].arrival_time_s, trace[i].arrival_time_s);
    EXPECT_EQ(loaded[i].requested_gpus, trace[i].requested_gpus);
    EXPECT_EQ(loaded[i].requested_batch, trace[i].requested_batch);
    EXPECT_EQ(loaded[i].dynamics_seed, trace[i].dynamics_seed);
    EXPECT_DOUBLE_EQ(loaded[i].kill_after_s, trace[i].kill_after_s);
  }
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream ss("id,model\n1,ResNet18\n");
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsWrongColumnCount) {
  std::stringstream ss;
  workload::write_trace_csv(ss, {});
  ss.seekp(0, std::ios::end);
  ss << "1,ResNet18,CIFAR10-20k,20000\n";
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsUnknownModel) {
  std::stringstream ss;
  ss << "id,model,dataset,dataset_size,num_classes,arrival_s,requested_gpus,"
        "requested_batch,dynamics_seed,kill_after_s\n";
  ss << "0,GPT-99,X-1k,1000,2,0,1,32,7,0\n";
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsNonNumericField) {
  std::stringstream ss;
  ss << "id,model,dataset,dataset_size,num_classes,arrival_s,requested_gpus,"
        "requested_batch,dynamics_seed,kill_after_s\n";
  ss << "zero,ResNet18,CIFAR10-20k,20000,10,0,1,256,7,0\n";
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsMalformedNumbersNamingTheLine) {
  // Each row is one bad field away from the valid row below; the error must
  // name the data line (the header is line 1, the good row line 2).
  const std::string good = "0,ResNet18,CIFAR10-20k,20000,10,0,1,256,7,0\n";
  const std::vector<std::pair<const char*, std::string>> bad = {
      {"trailing characters after a number", "1,ResNet18,CIFAR10-20k,20000x,10,0,1,256,7,0"},
      {"fractional integer", "1,ResNet18,CIFAR10-20k,20000,10,0,2.9,256,7,0"},
      {"signed unsigned seed", "1,ResNet18,CIFAR10-20k,20000,10,0,1,256,-1,0"},
      {"plus-signed unsigned seed", "1,ResNet18,CIFAR10-20k,20000,10,0,1,256,+1,0"},
      {"negative kill_after_s", "1,ResNet18,CIFAR10-20k,20000,10,0,1,256,7,-5"},
      {"NaN kill_after_s", "1,ResNet18,CIFAR10-20k,20000,10,0,1,256,7,nan"},
      {"infinite kill_after_s", "1,ResNet18,CIFAR10-20k,20000,10,0,1,256,7,inf"},
      {"infinite arrival_s", "1,ResNet18,CIFAR10-20k,20000,10,inf,1,256,7,0"},
      {"NaN arrival_s", "1,ResNet18,CIFAR10-20k,20000,10,nan,1,256,7,0"},
      {"negative num_classes", "1,ResNet18,CIFAR10-20k,20000,-3,0,1,256,7,0"},
      {"zero num_classes", "1,ResNet18,CIFAR10-20k,20000,0,0,1,256,7,0"},
  };
  for (const auto& [what, row] : bad) {
    std::stringstream ss;
    workload::write_trace_csv(ss, {});
    ss.seekp(0, std::ios::end);
    ss << good << row << '\n';
    try {
      workload::read_trace_csv(ss);
      ADD_FAILURE() << what << " was accepted: " << row;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos)
          << what << ": " << e.what();
    }
  }
  // The boundary values stay valid: 0 means "never killed".
  std::stringstream ok;
  workload::write_trace_csv(ok, {});
  ok.seekp(0, std::ios::end);
  ok << good << "1,ResNet18,CIFAR10-20k,20000,1,0.5,1,256,18446744073709551615,0\n";
  const auto loaded = workload::read_trace_csv(ok);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].dynamics_seed, 18446744073709551615ULL);
  EXPECT_EQ(loaded[1].kill_after_s, 0.0);
}

TEST(TraceIo, SaveAndLoadFile) {
  const auto trace = workload::generate_trace(trace_config(5, 10));
  const std::string path = "/tmp/ones_trace_io_test.csv";
  workload::save_trace(path, trace);
  const auto loaded = workload::load_trace(path);
  EXPECT_EQ(loaded.size(), trace.size());
  EXPECT_THROW(workload::load_trace("/nonexistent/dir/x.csv"), std::logic_error);
}

TEST(TraceIo, LoadedTraceRunsIdenticallyToOriginal) {
  const auto trace = workload::generate_trace(trace_config(8, 15, 37));
  std::stringstream ss;
  workload::write_trace_csv(ss, trace);
  const auto loaded = workload::read_trace_csv(ss);

  auto run = [&](const std::vector<workload::JobSpec>& t) {
    sched::FifoScheduler f;
    sched::ClusterSimulation sim(small_config(), t, f);
    sim.run();
    return telemetry::summarize("f", sim.metrics(), 8).avg_jct;
  };
  EXPECT_DOUBLE_EQ(run(trace), run(loaded));
}

}  // namespace
}  // namespace ones
