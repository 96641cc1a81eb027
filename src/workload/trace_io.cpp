#include "workload/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "model/task.hpp"

namespace ones::workload {

namespace {
constexpr const char* kHeader =
    "id,model,dataset,dataset_size,num_classes,arrival_s,requested_gpus,"
    "requested_batch,dynamics_seed,kill_after_s";

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  // A trailing empty field is dropped by getline; our schema has none.
  return fields;
}

/// Parse one whole numeric field. std::from_chars takes no leading sign on
/// unsigned types (std::stoull would wrap "-1" to 2^64 - 1) and stops at the
/// first character it cannot use, so "20000x" and "2.9"-as-an-integer are
/// rejected here instead of silently truncated.
template <typename T>
T parse_field(const std::string& field, const std::string& where) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  ONES_EXPECT_MSG(ec != std::errc::invalid_argument, where + "non-numeric field '" + field + "'");
  ONES_EXPECT_MSG(ec != std::errc::result_out_of_range, where + "value out of range '" + field + "'");
  ONES_EXPECT_MSG(ptr == end, where + "trailing characters in '" + field + "'");
  return value;
}
}  // namespace

void write_trace_csv(std::ostream& os, const std::vector<JobSpec>& trace) {
  os << kHeader << '\n';
  os.precision(17);  // exact double round-trip
  for (const auto& spec : trace) {
    ONES_EXPECT_MSG(spec.variant.model_name.find(',') == std::string::npos &&
                        spec.variant.dataset.find(',') == std::string::npos,
                    "names must not contain commas");
    os << spec.id << ',' << spec.variant.model_name << ',' << spec.variant.dataset
       << ',' << spec.variant.dataset_size << ',' << spec.variant.num_classes << ','
       << spec.arrival_time_s << ',' << spec.requested_gpus << ','
       << spec.requested_batch << ',' << spec.dynamics_seed << ',' << spec.kill_after_s
       << '\n';
  }
}

std::vector<JobSpec> read_trace_csv(std::istream& is) {
  std::string line;
  ONES_EXPECT_MSG(static_cast<bool>(std::getline(is, line)), "empty trace file");
  ONES_EXPECT_MSG(line == kHeader, "unexpected trace CSV header: " + line);

  std::vector<JobSpec> trace;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no) + ": ";
    const auto f = split_csv_line(line);
    ONES_EXPECT_MSG(f.size() == 10, where + "expected 10 fields");
    JobSpec spec;
    spec.id = parse_field<JobId>(f[0], where);
    spec.variant.model_name = f[1];
    spec.variant.dataset = f[2];
    spec.variant.dataset_size = parse_field<std::int64_t>(f[3], where);
    spec.variant.num_classes = parse_field<int>(f[4], where);
    spec.arrival_time_s = parse_field<double>(f[5], where);
    spec.requested_gpus = parse_field<int>(f[6], where);
    spec.requested_batch = parse_field<int>(f[7], where);
    spec.dynamics_seed = parse_field<std::uint64_t>(f[8], where);
    spec.kill_after_s = parse_field<double>(f[9], where);
    // Validate against the catalog and basic feasibility.
    (void)model::profile_by_name(spec.variant.model_name);
    ONES_EXPECT_MSG(spec.variant.dataset_size > 0, where + "dataset_size must be positive");
    ONES_EXPECT_MSG(spec.variant.num_classes >= 1, where + "num_classes must be at least 1");
    ONES_EXPECT_MSG(std::isfinite(spec.arrival_time_s) && spec.arrival_time_s >= 0.0,
                    where + "arrival_s must be finite and non-negative");
    ONES_EXPECT_MSG(spec.requested_gpus >= 1, where + "requested_gpus must be at least 1");
    ONES_EXPECT_MSG(spec.requested_batch >= spec.requested_gpus,
                    where + "requested_batch must be at least requested_gpus");
    // 0 is the "never killed" value.
    ONES_EXPECT_MSG(std::isfinite(spec.kill_after_s) && spec.kill_after_s >= 0.0,
                    where + "kill_after_s must be finite and non-negative");
    trace.push_back(std::move(spec));
  }
  return trace;
}

void save_trace(const std::string& path, const std::vector<JobSpec>& trace) {
  std::ofstream f(path, std::ios::binary);
  ONES_EXPECT_MSG(f.good(), "cannot open " + path + " for writing");
  write_trace_csv(f, trace);
  ONES_EXPECT_MSG(f.good(), "write to " + path + " failed");
}

std::vector<JobSpec> load_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  ONES_EXPECT_MSG(f.good(), "cannot open " + path);
  return read_trace_csv(f);
}

}  // namespace ones::workload
