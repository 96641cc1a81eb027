#include "exp/result.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "exp/run_spec.hpp"

namespace ones::exp {

namespace {

void append_series(std::ostringstream& os, const char* key,
                   const std::vector<double>& values) {
  os << json_quote(key) << ":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ',';
    os << json_double(values[i]);
  }
  os << ']';
}

std::vector<double> read_series(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  if (!v || v->kind != JsonValue::Kind::Array) {
    throw std::runtime_error(std::string("missing array field: ") + key);
  }
  std::vector<double> out;
  out.reserve(v->array.size());
  for (const auto& e : v->array) {
    if (e.kind != JsonValue::Kind::Number) {
      throw std::runtime_error(std::string("non-numeric element in ") + key);
    }
    out.push_back(e.number);
  }
  return out;
}

double read_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number) {
    throw std::runtime_error(std::string("missing numeric field: ") + key);
  }
  return v->number;
}

/// A JSON number as a non-negative integer of type T. Throws on negative,
/// non-finite, non-integral or out-of-range values: casting those would be
/// undefined behaviour, and a throw demotes the cache entry to a miss.
template <typename T>
T to_count(double v, const char* key) {
  if (!(std::isfinite(v) && v >= 0.0 && v == std::trunc(v) &&
        v < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    throw std::runtime_error(std::string("field is not a non-negative integer: ") + key);
  }
  return static_cast<T>(v);
}

template <typename T>
T read_count(const JsonValue& obj, const char* key) {
  return to_count<T>(read_number(obj, key), key);
}

std::string read_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::String) {
    throw std::runtime_error(std::string("missing string field: ") + key);
  }
  return v->string;
}

}  // namespace

std::string result_to_json(const RunResult& r) {
  std::ostringstream os;
  os << "{\"schema\":" << kCacheSchemaVersion << ",\"summary\":{";
  os << "\"scheduler\":" << json_quote(r.summary.scheduler);
  os << ",\"jobs\":" << r.summary.jobs;
  os << ",\"avg_jct\":" << json_double(r.summary.avg_jct);
  os << ",\"avg_exec\":" << json_double(r.summary.avg_exec);
  os << ",\"avg_queue\":" << json_double(r.summary.avg_queue);
  os << ",\"p50_jct\":" << json_double(r.summary.p50_jct);
  os << ",\"p90_jct\":" << json_double(r.summary.p90_jct);
  os << ",\"max_jct\":" << json_double(r.summary.max_jct);
  os << ",\"makespan\":" << json_double(r.summary.makespan);
  os << ",\"utilization\":" << json_double(r.summary.utilization);
  os << ",\"cluster_joules\":" << json_double(r.summary.cluster_joules);
  os << ",\"overhead_joules\":" << json_double(r.summary.overhead_joules);
  os << "},";
  append_series(os, "jcts", r.jcts);
  os << ',';
  append_series(os, "exec_times", r.exec_times);
  os << ',';
  append_series(os, "queue_times", r.queue_times);
  os << ",\"jct_by_job\":[";
  bool first = true;
  for (const auto& [id, jct] : r.jct_by_job) {
    if (!first) os << ',';
    first = false;
    os << '[' << id << ',' << json_double(jct) << ']';
  }
  os << "],\"completed\":" << r.completed;
  os << ",\"events_fired\":" << r.events_fired;
  os << ",\"deployments\":" << r.deployments << '}';
  return os.str();
}

RunResult result_from_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  if (doc.kind != JsonValue::Kind::Object) throw std::runtime_error("not a JSON object");
  if (read_count<int>(doc, "schema") != kCacheSchemaVersion) {
    throw std::runtime_error("cache schema version mismatch");
  }

  RunResult r;
  const JsonValue* summary = doc.find("summary");
  if (!summary || summary->kind != JsonValue::Kind::Object) {
    throw std::runtime_error("missing summary object");
  }
  r.summary.scheduler = read_string(*summary, "scheduler");
  r.summary.jobs = read_count<std::size_t>(*summary, "jobs");
  r.summary.avg_jct = read_number(*summary, "avg_jct");
  r.summary.avg_exec = read_number(*summary, "avg_exec");
  r.summary.avg_queue = read_number(*summary, "avg_queue");
  r.summary.p50_jct = read_number(*summary, "p50_jct");
  r.summary.p90_jct = read_number(*summary, "p90_jct");
  r.summary.max_jct = read_number(*summary, "max_jct");
  r.summary.makespan = read_number(*summary, "makespan");
  r.summary.utilization = read_number(*summary, "utilization");
  r.summary.cluster_joules = read_number(*summary, "cluster_joules");
  r.summary.overhead_joules = read_number(*summary, "overhead_joules");

  r.jcts = read_series(doc, "jcts");
  r.exec_times = read_series(doc, "exec_times");
  r.queue_times = read_series(doc, "queue_times");

  const JsonValue* pairs = doc.find("jct_by_job");
  if (!pairs || pairs->kind != JsonValue::Kind::Array) {
    throw std::runtime_error("missing jct_by_job array");
  }
  for (const auto& pair : pairs->array) {
    if (pair.kind != JsonValue::Kind::Array || pair.array.size() != 2 ||
        pair.array[0].kind != JsonValue::Kind::Number ||
        pair.array[1].kind != JsonValue::Kind::Number) {
      throw std::runtime_error("malformed jct_by_job entry");
    }
    r.jct_by_job[to_count<JobId>(pair.array[0].number, "jct_by_job")] =
        pair.array[1].number;
  }
  r.completed = read_count<std::size_t>(doc, "completed");
  r.events_fired = read_count<std::uint64_t>(doc, "events_fired");
  r.deployments = read_count<std::uint64_t>(doc, "deployments");
  return r;
}

}  // namespace ones::exp
