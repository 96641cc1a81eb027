// Repository benchmark driver (README.md in this directory).
//
// Runs ONE workload of the simulator in this process, on one thread, by
// calling sched::ClusterSimulation directly with a fresh scheduler per run.
// It never goes through exp::run_grid, so no run reads or writes the result
// cache. Every layer is timed from outside, through public entry points:
// workload::generate_trace, ClusterSimulation construction and run(), and
// Scheduler::on_event through the forwarding decorator TimedPolicy. The
// `traced` mode additionally attaches the program's own prof::Profiler and
// telemetry::MetricsRegistry through SimulationConfig.
//
//   perfbench time     --workload W --seed S --seconds T   end-to-end metrics
//   perfbench traced   --workload W --seed S --seconds T   per-layer metrics
//   perfbench gate     --workload W --seed S               replay-check one run
//   perfbench selftest --workload W --seed S               decorator == plain
//
// Each mode prints one JSON object on stdout and exits 0; any failed check
// exits 1 with a message on stderr. run.py drives the modes, one process each.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/math_util.hpp"
#include "core/ones_scheduler.hpp"
#include "prof/profiler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/registry.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace {

using namespace ones;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

// ---------------------------------------------------------------- workloads

/// splitmix64: independent per-purpose seeds from the one --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One workload: a simulator configuration, a trace shape and a policy. A
/// round simulates `traces` independent traces drawn from the run seed, so
/// that a seed whose trace happens to be light or heavy moves the round's
/// figures less.
struct Workload {
  int traces = 1;
  std::uint64_t seed = 0;
  sched::SimulationConfig sim;
  workload::TraceConfig trace;
  std::function<std::unique_ptr<sched::Scheduler>()> make_policy;

  workload::TraceConfig trace_config(int i) const {
    workload::TraceConfig t = trace;
    t.seed = derive_seed(seed, 2 * static_cast<std::uint64_t>(i) + 1);
    return t;
  }
  sched::SimulationConfig sim_config(int i) const {
    sched::SimulationConfig c = sim;
    if (c.fault.enabled()) c.fault.seed = derive_seed(seed, 2 * static_cast<std::uint64_t>(i) + 2);
    return c;
  }
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.seed = seed;
  w.sim.topology.gpus_per_node = 4;
  if (name == "ones_online") {
    // The paper's policy in its contended regime. 16 GPUs at half the
    // 32-GPU arrival rate keeps the offered load per GPU; six traces a round
    // keep one light or heavy trace from setting the figures.
    w.traces = 6;
    w.sim.topology.num_nodes = 4;
    w.trace.num_jobs = 120;
    w.trace.mean_interarrival_s = 18.0;
    w.make_policy = [] { return std::make_unique<core::OnesScheduler>(); };
  } else if (name == "fifo_hyperscale") {
    // The fig17 4k-GPU tier (a quarter of its jobs): place-only deployments
    // on a near-idle cluster, where the O(G) Assignment work dominates.
    w.sim.topology.num_nodes = 1000;
    w.sim.record_epoch_logs = false;  // FIFO never reads them
    w.trace.num_jobs = 10000;
    w.trace.mean_interarrival_s = 4.5;
    w.trace.max_requested_gpus = 8;
    w.trace.diurnal_amplitude = 0.3;
    w.make_policy = [] { return std::make_unique<sched::FifoScheduler>(false); };
  } else if (name == "tiresias_faults") {
    // Same trace shape on a busy 1k-GPU cluster with GPU and node failures
    // and checkpoint-restart recovery: the same driver and Assignment code as
    // fifo_hyperscale, but with many jobs running when a deployment lands.
    w.sim.topology.num_nodes = 250;
    w.sim.fault.gpu_mtbf_s = 50000.0;
    w.sim.fault.node_mtbf_s = 20000.0;
    w.trace.num_jobs = 3000;
    w.trace.mean_interarrival_s = 0.8;
    w.trace.max_requested_gpus = 8;
    w.trace.diurnal_amplitude = 0.3;
    w.make_policy = [] { return std::make_unique<sched::TiresiasScheduler>(); };
  } else {
    fail("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------ latency histogram

/// Fixed-memory histogram of nanosecond latencies: exact 1 ns buckets below
/// 2048 ns, then 1024 sub-buckets per power of two (<= 0.1% wide). Memory
/// does not grow with the sample count, so peak RSS does not depend on how
/// many runs fit in the measuring time.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void add(std::uint64_t ns) {
    ++counts_[bucket(std::min(ns, kMaxNs))];
    ++total_;
  }
  std::uint64_t count() const { return total_; }

  /// Quantile in ns, interpolated linearly inside the bucket holding rank
  /// q * count (the grouped-data quantile): a clock that reads whole
  /// nanoseconds still yields a median that moves with the distribution.
  double quantile(double q) const {
    if (total_ == 0) fail("quantile of an empty histogram");
    const double target = q * static_cast<double>(total_);
    double below = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0.0 && below + c >= target) {
        const auto [lower, width] = bounds(i);
        return static_cast<double>(lower) +
               std::max(0.0, target - below) / c * static_cast<double>(width);
      }
      below += c;
    }
    return static_cast<double>(kMaxNs);
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::uint64_t kLinear = std::uint64_t{2} << kSubBits;  // 2048
  static constexpr int kMaxExp = 40;  // clamp at ~18 minutes
  static constexpr std::uint64_t kMaxNs = (std::uint64_t{1} << kMaxExp) - 1;
  static constexpr std::size_t kBuckets =
      kLinear + static_cast<std::size_t>(kMaxExp - kSubBits - 1) * (std::size_t{1} << kSubBits);

  static std::size_t bucket(std::uint64_t ns) {
    if (ns < kLinear) return static_cast<std::size_t>(ns);
    const int e = static_cast<int>(std::bit_width(ns)) - 1;  // >= kSubBits + 1
    const int shift = e - kSubBits;
    return static_cast<std::size_t>(kLinear) +
           static_cast<std::size_t>(e - kSubBits - 1) * (std::size_t{1} << kSubBits) +
           static_cast<std::size_t>((ns >> shift) - (std::uint64_t{1} << kSubBits));
  }
  static std::pair<std::uint64_t, std::uint64_t> bounds(std::size_t i) {
    if (i < kLinear) return {i, 1};
    const std::size_t rel = i - static_cast<std::size_t>(kLinear);
    const int shift = static_cast<int>(rel >> kSubBits) + 1;
    const std::uint64_t sub = (std::uint64_t{1} << kSubBits) + (rel & ((1u << kSubBits) - 1));
    return {sub << shift, std::uint64_t{1} << shift};
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// ----------------------------------------------------- on_event decorator

constexpr std::size_t kEventKinds = 5;  // sched::EventKind enumerators

struct KindStats {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t deploys = 0;  ///< calls that returned an Assignment
};

/// Forwards everything to the wrapped policy and times each on_event call
/// with the host clock. The virtual hooks the driver calls on its scheduler
/// (set_metrics, set_profiler) are forwarded so the policy's own spans and
/// instruments still land in the run's profiler and registry; the trace
/// sink setter is not virtual, so it is forwarded on every call.
class TimedPolicy final : public sched::Scheduler {
 public:
  TimedPolicy(sched::Scheduler& inner, LatencyHistogram& latency)
      : inner_(inner), latency_(latency) {}

  std::string name() const override { return inner_.name(); }
  sched::ScalingMechanism mechanism() const override { return inner_.mechanism(); }
  double period_s() const override { return inner_.period_s(); }

  void set_metrics(telemetry::MetricsRegistry* metrics) override {
    sched::Scheduler::set_metrics(metrics);
    inner_.set_metrics(metrics);
  }
  void set_profiler(prof::Profiler* profiler) override {
    sched::Scheduler::set_profiler(profiler);
    inner_.set_profiler(profiler);
  }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override {
    inner_.set_trace_sink(trace_sink_);
    const auto begin = Clock::now();
    auto next = inner_.on_event(state, event);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin).count());
    latency_.add(ns);
    KindStats& k = kinds_.at(static_cast<std::size_t>(event.kind));
    ++k.calls;
    k.busy_ns += ns;
    if (next.has_value()) ++k.deploys;
    return next;
  }

  const std::array<KindStats, kEventKinds>& kinds() const { return kinds_; }

 private:
  sched::Scheduler& inner_;
  LatencyHistogram& latency_;
  std::array<KindStats, kEventKinds> kinds_{};
};

// ------------------------------------------------------------ one run

/// What a run attaches; all null is the plain, undecorated run.
struct Attach {
  LatencyHistogram* latency = nullptr;  ///< non-null: wrap the policy in TimedPolicy
  trace::TraceSink* sink = nullptr;
  prof::Profiler* profiler = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct RunResult {
  double generate_s = 0.0;
  double setup_s = 0.0;  ///< trace generation + scheduler and simulator construction
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t deployments = 0;
  std::uint64_t evolution_rounds = 0;
  std::size_t jobs = 0;
  std::size_t completed = 0;
  std::size_t aborted = 0;
  std::size_t unfinished = 0;
  std::vector<double> jcts;  ///< completed, non-aborted jobs
  double makespan_s = 0.0;
  double utilization = 0.0;
  /// FNV-1a over the deployment count and every job's timeline. The event
  /// count stays out: an attached trace sink schedules extra engine events
  /// (elastic_resumed records) without changing any job's outcome.
  std::uint64_t digest = 0;
  std::array<KindStats, kEventKinds> kinds{};
};

class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Setup only, for trace i: generate it and build the scheduler and simulator.
double time_setup(const Workload& w, int i) {
  const auto begin = Clock::now();
  auto trace = workload::generate_trace(w.trace_config(i));
  const auto policy = w.make_policy();
  const sched::ClusterSimulation sim(w.sim_config(i), std::move(trace), *policy);
  return seconds_between(begin, Clock::now());
}

RunResult simulate(const Workload& w, int i, const Attach& attach) {
  RunResult r;
  const auto begin = Clock::now();
  auto trace = workload::generate_trace(w.trace_config(i));
  const auto generated = Clock::now();
  r.jobs = trace.size();
  const auto policy = w.make_policy();
  std::optional<TimedPolicy> timed;
  if (attach.latency != nullptr) timed.emplace(*policy, *attach.latency);
  sched::Scheduler& driven = timed ? static_cast<sched::Scheduler&>(*timed) : *policy;
  sched::SimulationConfig config = w.sim_config(i);
  config.trace_sink = attach.sink;
  config.profiler = attach.profiler;
  config.metrics = attach.metrics;
  sched::ClusterSimulation sim(config, std::move(trace), driven);
  const auto built = Clock::now();
  sim.run();
  const auto ran = Clock::now();

  r.generate_s = seconds_between(begin, generated);
  r.setup_s = seconds_between(begin, built);
  r.run_s = seconds_between(built, ran);
  r.events = sim.events_fired();
  r.deployments = sim.deployments();
  if (const auto* ones = dynamic_cast<const core::OnesScheduler*>(policy.get())) {
    r.evolution_rounds = ones->evolution_rounds();
  }
  if (timed) r.kinds = timed->kinds();

  // Every job is accounted for: converged, aborted or left unfinished.
  const telemetry::MetricsCollector& m = sim.metrics();
  if (m.submitted() != r.jobs) fail("a submitted job is missing from the metrics");
  r.completed = m.completed();
  r.aborted = m.aborted();
  if (r.completed + r.aborted != sim.completed_jobs()) {
    fail("converged + aborted jobs disagree with the driver's finished count");
  }
  r.unfinished = r.jobs - sim.completed_jobs();
  r.jcts = m.jcts();
  const telemetry::Summary s = sim.summary(driven.name());
  r.makespan_s = s.makespan;
  r.utilization = s.utilization;

  Fnv h;
  h.add(r.deployments);
  h.add(r.evolution_rounds);
  for (const JobId id : m.job_ids()) {
    const telemetry::JobMetrics& j = m.job(id);
    h.add(id);
    h.add(j.arrival_s);
    h.add(j.first_start_s);
    h.add(j.completion_s);
    h.add(j.exec_time_s);
    h.add(j.preemptions);
    h.add(j.aborted);
  }
  r.digest = h.value();
  return r;
}

double setup_round(const Workload& w) {
  double s = 0.0;
  for (int i = 0; i < w.traces; ++i) s += time_setup(w, i);
  return s;
}

template <typename F>
double sum_of(const std::vector<RunResult>& runs, F field) {
  double s = 0.0;
  for (const RunResult& r : runs) s += static_cast<double>(field(r));
  return s;
}

// ------------------------------------------------------------- helpers

double median(const std::vector<double>& v) {
  if (v.empty()) fail("median of no samples");
  return quantile(v, 0.5);
}

/// VmHWM of this process in MiB (Linux /proc).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  fail("VmHWM not found in /proc/self/status");
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Flat JSON object writer: keys in insertion order, doubles with all digits.
class JsonOut {
 public:
  JsonOut& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonOut& count(std::string_view key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonOut& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + std::string(v) + "\"");  // callers pass [0-9a-z_] only
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  JsonOut& raw(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_;
};

/// The simulated outputs every mode reports over the traces it ran, so
/// run.py can check that all of its processes simulated the same thing.
/// `digest0` is trace 0's digest, the one trace every mode runs.
void put_outputs(JsonOut& out, const std::vector<RunResult>& runs) {
  Fnv all;
  std::vector<double> jcts;
  for (const RunResult& r : runs) {
    all.add(r.digest);
    jcts.insert(jcts.end(), r.jcts.begin(), r.jcts.end());
  }
  if (jcts.empty()) fail("no job completed");
  const auto n = static_cast<double>(runs.size());
  out.str("digest0", hex(runs.front().digest))
      .str("digest", hex(all.value()))
      .count("traces", runs.size())
      .num("jobs", sum_of(runs, [](const RunResult& r) { return r.jobs; }))
      .num("completed", sum_of(runs, [](const RunResult& r) { return r.completed; }))
      .num("aborted", sum_of(runs, [](const RunResult& r) { return r.aborted; }))
      .num("unfinished", sum_of(runs, [](const RunResult& r) { return r.unfinished; }))
      .num("events", sum_of(runs, [](const RunResult& r) { return r.events; }))
      .num("deployments", sum_of(runs, [](const RunResult& r) { return r.deployments; }))
      .num("avg_jct_s", mean_of(jcts))
      .num("p90_jct_s", quantile(jcts, 0.9))
      .num("makespan_s", sum_of(runs, [](const RunResult& r) { return r.makespan_s; }) / n)
      .num("utilization", sum_of(runs, [](const RunResult& r) { return r.utilization; }) / n);
}

void expect_same(const std::vector<RunResult>& a, const std::vector<RunResult>& b,
                 const char* what) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].digest != b[i].digest) {
      fail(std::string(what) + ": simulated outputs of trace " + std::to_string(i) +
           " differ (digest " + hex(a[i].digest) + " vs " + hex(b[i].digest) + ")");
    }
  }
}

std::uint64_t policy_calls(const RunResult& r) {
  std::uint64_t n = 0;
  for (const KindStats& k : r.kinds) n += k.calls;
  return n;
}

std::uint64_t policy_busy_ns(const RunResult& r) {
  std::uint64_t n = 0;
  for (const KindStats& k : r.kinds) n += k.busy_ns;
  return n;
}

// ----------------------------------------------------------------- modes

/// Host speed probe: a fixed kernel that shares no code with the simulator
/// (xorshift fill and std::sort of 256 KiB, which fits in L2), timed in
/// short windows spread over the measuring time. Host-time figures on a
/// shared VM drift by 10-25% over tens of seconds, and nearly all of that
/// drift is common to every code path in the process; run.py divides it
/// out with the median window rate.
class HostSpeed {
 public:
  /// One window of kWindowSeconds.
  void sample() {
    const auto begin = Clock::now();
    int reps = 0;
    double elapsed = 0.0;
    do {
      for (std::uint64_t& k : keys_) {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        k = state_;
      }
      std::sort(keys_.begin(), keys_.end());
      sink_ += keys_[keys_.size() / 2];
      ++reps;
      elapsed = seconds_between(begin, Clock::now());
    } while (elapsed < kWindowSeconds);
    rates_.push_back(static_cast<double>(reps) / elapsed);
  }
  /// Median window rate, kernel repetitions per second.
  double rate() const { return median(rates_); }
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr double kWindowSeconds = 0.1;
  std::vector<std::uint64_t> keys_ = std::vector<std::uint64_t>(std::size_t{1} << 15);
  std::uint64_t state_ = 88172645463325252ULL;
  std::uint64_t sink_ = 0;  ///< printed, so the kernel cannot be optimized away
  std::vector<double> rates_;
};

/// Setup-only rounds after each timed simulation: at least kMinSetupRounds,
/// and at least kSetupShare of that simulation's wall, so the setup median
/// samples the whole measuring time rather than one moment of it.
constexpr int kMinSetupRounds = 2;
constexpr double kSetupShare = 0.02;

void mode_time(const Workload& w, double seconds) {
  HostSpeed speed;
  LatencyHistogram latency;
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<RunResult> first;
  const auto begin = Clock::now();
  double round_s = 0.0;
  // Whole rounds only, and none that would end past the measuring time.
  while (rates.empty() || seconds_between(begin, Clock::now()) + round_s <= seconds) {
    const auto round_begin = Clock::now();
    std::vector<RunResult> round;
    for (int i = 0; i < w.traces; ++i) {
      round.push_back(simulate(w, i, {.latency = &latency}));
      speed.sample();
      const double sim_s = round.back().setup_s + round.back().run_s;
      const auto setup_begin = Clock::now();
      for (int n = 0; n < kMinSetupRounds ||
                      seconds_between(setup_begin, Clock::now()) < kSetupShare * sim_s;
           ++n) {
        setups.push_back(setup_round(w));
      }
    }
    if (first.empty()) first = round;
    expect_same(first, round, "repeated timed runs of one seed");
    setups.push_back(sum_of(round, [](const RunResult& r) { return r.setup_s; }));
    rates.push_back(sum_of(round, [](const RunResult& r) { return r.events; }) /
                    sum_of(round, [](const RunResult& r) { return r.run_s; }));
    round_s = seconds_between(round_begin, Clock::now());
  }

  JsonOut out;
  out.str("mode", "time");
  put_outputs(out, first);
  out.count("rounds", rates.size())
      .count("decision_samples", latency.count())
      .count("setup_samples", setups.size())
      .num("events_per_s", median(rates))
      .num("decision_p50_us", latency.quantile(0.50) / 1e3)
      .num("decision_p99_us", latency.quantile(0.99) / 1e3)
      .num("setup_s", median(setups))
      .num("peak_rss_mib", peak_rss_mib())
      .num("host_speed", speed.rate())
      .count("host_speed_sink", speed.sink());
  out.print();
}

/// Span totals of a traced run over the span paths `match` accepts; `top`
/// says the span has no enclosing span.
struct SpanTotals {
  double seconds = 0.0;
  std::uint64_t count = 0;
};

SpanTotals spans_named(const prof::Profiler& profiler,
                       const std::function<bool(std::string_view leaf, bool top)>& match) {
  SpanTotals t;
  for (const prof::SpanStats& s : profiler.stats()) {
    const std::size_t slash = s.path.rfind('/');
    const std::string_view leaf =
        slash == std::string::npos ? std::string_view(s.path)
                                   : std::string_view(s.path).substr(slash + 1);
    if (match(leaf, slash == std::string::npos)) {
      t.seconds += static_cast<double>(s.total_ns) / 1e9;
      t.count += s.count;
    }
  }
  return t;
}

bool is_engine(std::string_view leaf) { return leaf.rfind("engine.", 0) == 0; }

/// Top-level decision and engine spans must account for this share of
/// run() wall in a traced run; the rest is driver work outside any span.
constexpr double kMinAttributed = 0.95;

/// Span layers reported by the traced mode, matched by span name wherever
/// they nest.
struct SpanLayer {
  const char* metric;
  std::function<bool(std::string_view)> match;
};

const std::vector<SpanLayer>& span_layers() {
  static const std::vector<SpanLayer> layers = {
      {"sched.apply", [](std::string_view l) { return l == "apply"; }},
      {"sim.engine", is_engine},
      {"core.evolve.step", [](std::string_view l) { return l == "evolve.step"; }},
      {"core.evolve.refresh", [](std::string_view l) { return l == "evolve.refresh"; }},
      {"core.evolve.offspring", [](std::string_view l) { return l == "evolve.offspring"; }},
      {"core.evolve.select", [](std::string_view l) { return l == "evolve.select"; }},
      {"predict.fit", [](std::string_view l) { return l == "predict.fit"; }},
  };
  return layers;
}

/// Per-layer figures from trace 0: untraced and traced runs alternate so
/// both see the same host drift. Layers timed from outside come from the
/// untraced runs, span layers from the traced ones.
void mode_traced(const Workload& w, double seconds) {
  const std::vector<SpanLayer>& layers = span_layers();
  LatencyHistogram latency;
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  std::vector<double> generate_s;
  std::vector<double> policy_s;
  std::vector<double> driver_self_s;
  std::array<std::vector<double>, kEventKinds> kind_busy_s;
  std::vector<double> unattributed;
  std::vector<std::vector<double>> layer_s(layers.size());
  std::vector<std::uint64_t> layer_calls(layers.size(), 0);
  std::vector<RunResult> first;
  double restarts = 0.0;

  const auto run_plain = [&] {
    const RunResult plain = simulate(w, 0, {.latency = &latency});
    if (first.empty()) first = {plain};
    expect_same(first, {plain}, "repeated untraced runs of one seed");
    plain_wall.push_back(plain.run_s);
    generate_s.push_back(plain.generate_s);
    const double busy = static_cast<double>(policy_busy_ns(plain)) / 1e9;
    policy_s.push_back(busy);
    driver_self_s.push_back(plain.run_s - busy);
    for (std::size_t k = 0; k < kEventKinds; ++k) {
      kind_busy_s[k].push_back(static_cast<double>(plain.kinds[k].busy_ns) / 1e9);
    }
  };
  const auto run_traced = [&] {
    prof::Profiler profiler;
    telemetry::MetricsRegistry registry;
    LatencyHistogram traced_latency;  // traced latencies stay out of the figures
    const RunResult traced =
        simulate(w, 0, {.latency = &traced_latency, .profiler = &profiler, .metrics = &registry});
    if (first.empty()) first = {traced};
    expect_same(first, {traced}, "traced vs untraced run");
    traced_wall.push_back(traced.run_s);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const SpanTotals t =
          spans_named(profiler, [&](std::string_view l, bool) { return layers[i].match(l); });
      layer_s[i].push_back(t.seconds);
      if (traced_wall.size() > 1 && t.count != layer_calls[i]) {
        fail(std::string("span count of ") + layers[i].metric + " changed between traced runs");
      }
      layer_calls[i] = t.count;
    }
    const double attributed = spans_named(profiler, [](std::string_view l, bool top) {
                                return top && (l == "decision" || is_engine(l));
                              }).seconds;
    unattributed.push_back(1.0 - attributed / traced.run_s);
    restarts = registry.counter_value("fault_job_restarts_total");
  };

  // Pairs alternate which run goes first, so warm-up favours neither side.
  const auto begin = Clock::now();
  double pair_s = 0.0;
  while (traced_wall.empty() || seconds_between(begin, Clock::now()) + pair_s <= seconds) {
    const auto pair_begin = Clock::now();
    if (traced_wall.size() % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    pair_s = seconds_between(pair_begin, Clock::now());
  }

  // Reported, not fatal: the driver's own event callbacks (epoch accrual,
  // arrivals) run outside any span, so on the large-cluster workloads the
  // check fails until the program gains a span there.
  const double unattributed_ratio = median(unattributed);
  const bool attribution_ok = 1.0 - unattributed_ratio >= kMinAttributed;
  const RunResult& r = first.front();
  const std::uint64_t calls = policy_calls(r);
  std::uint64_t deploys = 0;
  for (const KindStats& k : r.kinds) deploys += k.deploys;

  JsonOut out;
  out.str("mode", "traced");
  put_outputs(out, first);
  out.count("pairs", traced_wall.size())
      .count("sched.policy.calls", calls)
      .num("sched.policy.busy_s", median(policy_s));
  const char* kind_names[kEventKinds] = {"arrival", "epoch", "complete", "timer", "capacity"};
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    // No policy benchmarked here sets period_s, so none sees Timer events.
    if (k == static_cast<std::size_t>(sched::EventKind::Timer)) continue;
    out.num(std::string("sched.policy.") + kind_names[k] + ".busy_s", median(kind_busy_s[k]));
  }
  out.num("sched.policy.deploy_ratio", static_cast<double>(deploys) / static_cast<double>(calls))
      .num("sched.driver.self_s", median(driver_self_s))
      .count("sched.deployments", r.deployments)
      .count("sim.events", r.events)
      .count("core.evolution_rounds", r.evolution_rounds);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out.count(std::string(layers[i].metric) + ".calls", layer_calls[i])
        .num(std::string(layers[i].metric) + ".busy_s", median(layer_s[i]));
  }
  out.count("cluster.capacity_changes",
            r.kinds[static_cast<std::size_t>(sched::EventKind::CapacityChange)].calls)
      .num("cluster.fault.restarts", restarts)
      .num("workload.generate_s", median(generate_s))
      .num("prof.overhead_ratio", median(traced_wall) / median(plain_wall))
      .num("prof.unattributed_ratio", unattributed_ratio)
      .count("attribution_ok", attribution_ok ? 1 : 0);
  out.print();
}

/// Untimed, undecorated run of trace 0 into a record buffer, replay-checked
/// against invariants I1-I10.
void mode_gate(const Workload& w) {
  trace::RecordBufferSink sink;
  const RunResult r = simulate(w, 0, {.sink = &sink});
  const trace::ReplayReport report = trace::TraceReplayer{}.check(sink.records());
  if (!report.ok()) fail("trace replay found issues:\n" + report.to_string());
  JsonOut out;
  out.str("mode", "gate");
  put_outputs(out, {r});
  out.count("trace_records", report.records);
  out.print();
}

/// The decorator must be invisible: the same simulated results as the plain
/// policy with and without a trace sink, profiler and registry attached,
/// the same trace records (so the sink reaches the wrapped policy), and the
/// wrapped policy's own spans in the profile.
void mode_selftest(const Workload& w) {
  const auto plain_policy = w.make_policy();
  LatencyHistogram scratch;
  const TimedPolicy decorated(*plain_policy, scratch);
  if (decorated.name() != plain_policy->name() ||
      decorated.mechanism() != plain_policy->mechanism() ||
      decorated.period_s() != plain_policy->period_s()) {
    fail("decorator does not forward name/mechanism/period_s");
  }

  trace::RecordBufferSink plain_sink;
  const RunResult plain = simulate(w, 0, {.sink = &plain_sink});
  LatencyHistogram latency;
  trace::RecordBufferSink timed_sink;
  const RunResult timed = simulate(w, 0, {.latency = &latency, .sink = &timed_sink});
  expect_same({plain}, {timed}, "decorated vs plain run");
  if (plain_sink.records() != timed_sink.records()) {
    fail("decorated run emitted different trace records than the plain run");
  }
  if (latency.count() == 0 || latency.count() != policy_calls(timed)) {
    fail("decorator call count disagrees with its latency samples");
  }

  prof::Profiler profiler;
  telemetry::MetricsRegistry registry;
  const RunResult traced =
      simulate(w, 0, {.latency = &latency, .profiler = &profiler, .metrics = &registry});
  expect_same({plain}, {traced}, "traced decorated vs plain run");
  const auto has_span = [&profiler](std::string_view name) {
    return spans_named(profiler, [name](std::string_view l, bool) { return l == name; }).count > 0;
  };
  if (!has_span("decision")) fail("traced profile has no decision spans");
  if (traced.evolution_rounds > 0 && !has_span("evolve.step")) {
    fail("ONES ran evolution rounds but the traced profile has no evolve.step span");
  }
  if (registry.counter_value("sched_events_total") == 0.0) {
    fail("metrics registry saw no scheduler events");
  }

  JsonOut out;
  out.str("mode", "selftest");
  put_outputs(out, {plain});
  out.count("trace_records", plain_sink.records().size());
  out.print();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench time|traced|gate|selftest --workload NAME --seed N "
               "[--seconds S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 0 || name.empty() || !have_seed || !(seconds > 0.0)) return usage();

  try {
    const Workload w = make_workload(name, seed);
    if (mode == "time") {
      mode_time(w, seconds);
    } else if (mode == "traced") {
      mode_traced(w, seconds);
    } else if (mode == "gate") {
      mode_gate(w);
    } else if (mode == "selftest") {
      mode_selftest(w);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s %s: %s\n", mode.c_str(), name.c_str(), e.what());
    return 1;
  }
  return 0;
}
