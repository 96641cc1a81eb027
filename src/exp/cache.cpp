#include "exp/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/log.hpp"

namespace ones::exp {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled) {}

std::string ResultCache::path_for(const RunSpec& spec) const {
  return (fs::path(dir_) / (cache_key(spec) + ".json")).string();
}

std::optional<RunResult> ResultCache::load(const RunSpec& spec) const {
  if (!enabled_) return std::nullopt;
  std::ifstream in(path_for(spec), std::ios::binary);
  if (!in) {
    misses_.fetch_add(1);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    RunResult r = result_from_json(buf.str());
    r.from_cache = true;
    hits_.fetch_add(1);
    return r;
  } catch (const std::runtime_error& e) {
    ONES_LOG(Warn) << "discarding unreadable cache entry " << path_for(spec) << ": "
                   << e.what();
    demotions_.fetch_add(1);
    misses_.fetch_add(1);
    return std::nullopt;
  }
}

void ResultCache::store(const RunSpec& spec, const RunResult& result) const {
  if (!enabled_) return;
  const std::string final_path = path_for(spec);
  try {
    fs::create_directories(dir_);
    stores_.fetch_add(1);
    // Concurrent stores never clobber each other's partial writes, and
    // readers only ever see complete files.
    common::write_file_atomically(
        final_path, [&](std::ostream& out) { out << result_to_json(result) << '\n'; });
  } catch (const std::exception& e) {
    ONES_LOG(Warn) << "failed to store cache entry " << final_path << ": " << e.what();
  }
}

}  // namespace ones::exp
