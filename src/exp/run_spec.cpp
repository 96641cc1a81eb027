#include "exp/run_spec.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sched/fifo.hpp"
#include "sched/srtf.hpp"

namespace ones::exp {

namespace {

void put(std::ostringstream& os, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << key << '=' << buf << '\n';
}

void put(std::ostringstream& os, const char* key, int v) { os << key << '=' << v << '\n'; }

void put(std::ostringstream& os, const char* key, std::uint64_t v) {
  os << key << '=' << v << '\n';
}

void put(std::ostringstream& os, const char* key, bool v) {
  os << key << '=' << (v ? 1 : 0) << '\n';
}

template <typename T>
void put(std::ostringstream& os, const std::string& key, const std::vector<T>& values) {
  put(os, (key + ".size").c_str(), static_cast<std::uint64_t>(values.size()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    put(os, (key + "." + std::to_string(i)).c_str(), values[i]);
  }
}

// kind / put_fields / make: one overload per SchedulerSpec alternative.
// Each put_fields binds EVERY member of its config with a structured
// binding, so adding a config field without revisiting its key lines here
// is a compile error: the key covers every knob by construction.

const char* kind(const core::OnesConfig&) { return "ones"; }
const char* kind(const drl::DrlConfig&) { return "drl"; }
const char* kind(const sched::TiresiasConfig&) { return "tiresias"; }
const char* kind(const sched::OptimusConfig&) { return "optimus"; }
const char* kind(const sched::PowerCapConfig&) { return "powercap"; }
const char* kind(const FifoConfig&) { return "fifo"; }
const char* kind(const SrtfConfig&) { return "srtf"; }

void put_fields(std::ostringstream& os, const core::OnesConfig& c) {
  const auto& [evolution, policy, predictor, use_predictor, mechanism] = c;
  const auto& [population_size, mutation_rate, rounds_per_event, use_crossover,
               use_mutation, use_reorder, switch_penalty_s, preempt_penalty_s,
               lambda_energy, evolution_seed] = evolution;
  put(os, "ones.evolution.population_size", static_cast<std::uint64_t>(population_size));
  put(os, "ones.evolution.mutation_rate", mutation_rate);
  put(os, "ones.evolution.rounds_per_event", rounds_per_event);
  put(os, "ones.evolution.use_crossover", use_crossover);
  put(os, "ones.evolution.use_mutation", use_mutation);
  put(os, "ones.evolution.use_reorder", use_reorder);
  put(os, "ones.evolution.switch_penalty_s", switch_penalty_s);
  put(os, "ones.evolution.preempt_penalty_s", preempt_penalty_s);
  put(os, "ones.evolution.lambda_energy", lambda_energy);
  put(os, "ones.evolution.seed", evolution_seed);
  const auto& [sigma, sigma_scale, warmup_epochs, r_cap_multiple, min_limit_divisor] =
      policy;
  put(os, "ones.policy.sigma", sigma);
  put(os, "ones.policy.sigma_scale", sigma_scale);
  put(os, "ones.policy.warmup_epochs", warmup_epochs);
  put(os, "ones.policy.r_cap_multiple", r_cap_multiple);
  put(os, "ones.policy.min_limit_divisor", min_limit_divisor);
  const auto& [max_training_points, points_per_job, ridge_lambda, likelihood_steps,
               learning_rate, prior_total_epochs, predictor_seed] = predictor;
  put(os, "ones.predictor.max_training_points",
      static_cast<std::uint64_t>(max_training_points));
  put(os, "ones.predictor.points_per_job", static_cast<std::uint64_t>(points_per_job));
  put(os, "ones.predictor.ridge_lambda", ridge_lambda);
  put(os, "ones.predictor.likelihood_steps", likelihood_steps);
  put(os, "ones.predictor.learning_rate", learning_rate);
  put(os, "ones.predictor.prior_total_epochs", prior_total_epochs);
  put(os, "ones.predictor.seed", predictor_seed);
  put(os, "ones.use_predictor", use_predictor);
  put(os, "ones.mechanism", static_cast<int>(mechanism));
}

void put_fields(std::ostringstream& os, const drl::DrlConfig& c) {
  const auto& [hidden, learning_rate, train_episodes, train_jobs, train_interarrival_s,
               train_nodes, max_workers_per_job, seed] = c;
  put(os, "drl.hidden", hidden);
  put(os, "drl.learning_rate", learning_rate);
  put(os, "drl.train_episodes", train_episodes);
  put(os, "drl.train_jobs", train_jobs);
  put(os, "drl.train_interarrival_s", train_interarrival_s);
  put(os, "drl.train_nodes", train_nodes);
  put(os, "drl.max_workers_per_job", max_workers_per_job);
  put(os, "drl.seed", seed);
}

void put_fields(std::ostringstream& os, const sched::TiresiasConfig& c) {
  const auto& [queue_thresholds, promote_knob] = c;
  put(os, "tiresias.queue_thresholds", queue_thresholds);
  put(os, "tiresias.promote_knob", promote_knob);
}

void put_fields(std::ostringstream& os, const sched::OptimusConfig& c) {
  const auto& [reschedule_period_s, max_workers_per_job, default_total_epochs,
               patience_epochs] = c;
  put(os, "optimus.reschedule_period_s", reschedule_period_s);
  put(os, "optimus.max_workers_per_job", max_workers_per_job);
  put(os, "optimus.default_total_epochs", default_total_epochs);
  put(os, "optimus.patience_epochs", patience_epochs);
}

void put_fields(std::ostringstream& os, const sched::PowerCapConfig& c) {
  const auto& [cap_fraction, cap_watts] = c;
  put(os, "powercap.cap_fraction", cap_fraction);
  put(os, "powercap.cap_watts", cap_watts);
}

void put_fields(std::ostringstream& os, const FifoConfig& c) {
  const auto& [backfill] = c;
  put(os, "fifo.backfill", backfill);
}

void put_fields(std::ostringstream&, const SrtfConfig&) {}

std::unique_ptr<sched::Scheduler> make(const core::OnesConfig& c) {
  return std::make_unique<core::OnesScheduler>(c);
}
std::unique_ptr<sched::Scheduler> make(const drl::DrlConfig& c) {
  auto s = std::make_unique<drl::DrlScheduler>(c);
  s->train();
  return s;
}
std::unique_ptr<sched::Scheduler> make(const sched::TiresiasConfig& c) {
  return std::make_unique<sched::TiresiasScheduler>(c);
}
std::unique_ptr<sched::Scheduler> make(const sched::OptimusConfig& c) {
  return std::make_unique<sched::OptimusScheduler>(c);
}
std::unique_ptr<sched::Scheduler> make(const sched::PowerCapConfig& c) {
  return std::make_unique<sched::PowerCapScheduler>(c);
}
std::unique_ptr<sched::Scheduler> make(const FifoConfig& c) {
  return std::make_unique<sched::FifoScheduler>(c.backfill);
}
std::unique_ptr<sched::Scheduler> make(const SrtfConfig&) {
  return std::make_unique<sched::SrtfOracleScheduler>();
}

}  // namespace

std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec) {
  return std::visit([](const auto& c) { return make(c); }, spec);
}

std::string scheduler_kind(const SchedulerSpec& spec) {
  return std::visit([](const auto& c) { return std::string(kind(c)); }, spec);
}

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : data) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string canonical_serialize(const RunSpec& spec) {
  std::ostringstream os;
  put(os, "schema", kCacheSchemaVersion);
  os << "scheduler=" << scheduler_kind(spec.scheduler) << '\n';
  std::visit([&os](const auto& c) { put_fields(os, c); }, spec.scheduler);

  const auto& t = spec.sim.topology;
  put(os, "topology.num_nodes", t.num_nodes);
  put(os, "topology.gpus_per_node", t.gpus_per_node);
  put(os, "topology.intra_node_bw_Bps", t.intra_node_bw_Bps);
  put(os, "topology.inter_node_bw_Bps", t.inter_node_bw_Bps);
  put(os, "topology.intra_node_latency_s", t.intra_node_latency_s);
  put(os, "topology.inter_node_latency_s", t.inter_node_latency_s);

  const auto& c = spec.sim.convergence;
  put(os, "convergence.patience_epochs", c.patience_epochs);
  put(os, "convergence.spike_per_extra_doubling", c.spike_per_extra_doubling);
  put(os, "convergence.disturbance_decay", c.disturbance_decay);
  put(os, "convergence.progress_slowdown", c.progress_slowdown);
  put(os, "convergence.disturbance_accuracy_drop", c.disturbance_accuracy_drop);
  put(os, "convergence.accuracy_noise", c.accuracy_noise);
  put(os, "convergence.lr_linear_scaling", c.lr_linear_scaling);

  const auto& k = spec.sim.costs;
  put(os, "costs.pause_step_s", k.pause_step_s);
  put(os, "costs.resize_modules_s", k.resize_modules_s);
  put(os, "costs.resize_per_byte_s", k.resize_per_byte_s);
  put(os, "costs.reconnect_base_s", k.reconnect_base_s);
  put(os, "costs.reconnect_per_worker_s", k.reconnect_per_worker_s);
  put(os, "costs.hdfs_bw_Bps", k.hdfs_bw_Bps);
  put(os, "costs.scheduler_delay_s", k.scheduler_delay_s);
  put(os, "costs.framework_init_s", k.framework_init_s);
  put(os, "costs.data_pipeline_warmup_s", k.data_pipeline_warmup_s);
  put(os, "costs.model_load_s", k.model_load_s);

  const auto& o = spec.sim.oracle;
  put(os, "oracle.noise_sigma", o.noise_sigma);
  put(os, "oracle.noise_seed", o.noise_seed);

  // Electrical constants feed the joules in the result, so — unlike the
  // trace/metrics sinks — they are cache-key inputs (DESIGN.md §10).
  const auto& p = spec.sim.power;
  put(os, "power.gpu_idle_w", p.gpu_idle_w);
  put(os, "power.gpu_busy_w", p.gpu_busy_w);
  put(os, "power.node_base_w", p.node_base_w);
  put(os, "power.comm_power_fraction", p.comm_power_fraction);

  // Fault injection moves every metric, so the whole config is key material
  // (DESIGN.md §13). Schema v4.
  const auto& f = spec.sim.fault;
  put(os, "fault.seed", f.seed);
  put(os, "fault.gpu_mtbf_s", f.gpu_mtbf_s);
  put(os, "fault.gpu_repair_s", f.gpu_repair_s);
  put(os, "fault.node_mtbf_s", f.node_mtbf_s);
  put(os, "fault.node_repair_s", f.node_repair_s);
  put(os, "fault.spot_fraction", f.spot_fraction);
  put(os, "fault.reclaim_mtbf_s", f.reclaim_mtbf_s);
  put(os, "fault.reclaim_return_s", f.reclaim_return_s);
  put(os, "fault.checkpoint_interval_s", f.checkpoint_interval_s);
  put(os, "fault.retry_backoff_s", f.retry_backoff_s);
  put(os, "fault.max_restarts", f.max_restarts);

  put(os, "sim.max_sim_time_s", spec.sim.max_sim_time_s);
  put(os, "sim.record_epoch_logs", spec.sim.record_epoch_logs);

  const auto& w = spec.trace;
  put(os, "trace.num_jobs", w.num_jobs);
  put(os, "trace.mean_interarrival_s", w.mean_interarrival_s);
  put(os, "trace.seed", w.seed);
  put(os, "trace.poisson_arrivals", w.poisson_arrivals);
  put(os, "trace.abnormal_fraction", w.abnormal_fraction);
  put(os, "trace.abnormal_mean_lifetime_s", w.abnormal_mean_lifetime_s);
  put(os, "trace.max_requested_gpus", w.max_requested_gpus);
  put(os, "trace.diurnal_amplitude", w.diurnal_amplitude);
  return os.str();
}

std::string cache_key(const RunSpec& spec) {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(canonical_serialize(spec))));
  return scheduler_kind(spec.scheduler) + "-" + hex;
}

}  // namespace ones::exp
