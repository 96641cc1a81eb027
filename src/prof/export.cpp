#include "prof/export.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/json.hpp"

namespace ones::prof {

namespace fs = std::filesystem;

std::string format_profile(const std::vector<SpanStats>& stats) {
  std::string out = "[prof] span                                     count     total(ms)      self(ms)\n";
  char line[256];
  for (const SpanStats& s : stats) {
    std::snprintf(line, sizeof(line), "[prof] %-40s %9llu %13.3f %13.3f\n",
                  s.path.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<double>(s.self_ns) / 1e6);
    out += line;
  }
  return out;
}

void write_profile_json(std::ostream& out, const std::vector<SpanStats>& stats) {
  out << "{\"schema\":1,\"spans\":[";
  bool first = true;
  for (const SpanStats& s : stats) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"path\":" << json_quote(s.path) << ",\"count\":" << s.count
        << ",\"total_ns\":" << s.total_ns << ",\"self_ns\":" << s.self_ns << '}';
  }
  out << "\n]}\n";
}

void write_profile_file(const std::string& dir, const std::string& stem,
                        const std::vector<SpanStats>& stats) {
  fs::create_directories(dir);
  common::write_file_atomically((fs::path(dir) / (stem + ".prof.json")).string(),
                                [&](std::ostream& out) { write_profile_json(out, stats); });
}

std::vector<std::string> chrome_span_events(const Profiler& profiler) {
  std::vector<std::string> events;
  events.reserve(profiler.timeline().size() + 2);
  // Dedicated host-time process track: pid 0 carries the sim-time job
  // slices, pid 1 the wall-clock profiler spans.
  events.push_back(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":"
      "{\"name\":\"host profiler (wall-clock)\"}}");
  events.push_back(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":"
      "{\"name\":\"spans\"}}");
  for (const Profiler::TimelineEvent& ev : profiler.timeline()) {
    std::ostringstream os;
    os << "{\"name\":" << json_quote(profiler.path_of(ev.node))
       << ",\"cat\":\"host\",\"ph\":\"X\",\"ts\":"
       << json_double(static_cast<double>(ev.start_ns) / 1e3)
       << ",\"dur\":" << json_double(static_cast<double>(ev.dur_ns) / 1e3)
       << ",\"pid\":1,\"tid\":0}";
    events.push_back(os.str());
  }
  if (profiler.timeline_dropped() > 0) {
    std::ostringstream os;
    os << "{\"name\":\"profiler timeline truncated: "
       << profiler.timeline_dropped()
       << " spans dropped\",\"cat\":\"host\",\"ph\":\"i\",\"s\":\"p\",\"ts\":0,"
       << "\"pid\":1,\"tid\":0}";
    events.push_back(os.str());
  }
  return events;
}

}  // namespace ones::prof
