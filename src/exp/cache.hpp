// Content-addressed on-disk result cache.
//
// One JSON file per run under the cache directory (default `.ones-cache/`),
// named by `cache_key(spec)` — a human-readable prefix plus the FNV-1a hash
// of the spec's canonical serialization. A warm cache makes re-running an
// unchanged bench near-instant; any change to the spec (seed, topology,
// trace, any scheduler knob, schema version) changes the key and misses.
//
// Thread safety: load/store may be called concurrently from worker threads.
// Stores write to a unique temp file and rename into place, so readers never
// observe a partial file; hit/miss/store counters are atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "exp/result.hpp"
#include "exp/run_spec.hpp"

namespace ones::exp {

class ResultCache {
 public:
  explicit ResultCache(std::string dir = ".ones-cache", bool enabled = true);

  /// Look up the result of `spec`. Returns nullopt when disabled, absent,
  /// unreadable, or written by a different schema version (all treated as
  /// misses — a corrupt entry is overwritten by the next store).
  std::optional<RunResult> load(const RunSpec& spec) const;

  /// Persist the result of `spec` (no-op when disabled). Creates the cache
  /// directory on first use; I/O failures are swallowed after a warning —
  /// caching is an optimization, never a correctness requirement.
  void store(const RunSpec& spec, const RunResult& result) const;

  const std::string& dir() const { return dir_; }
  bool enabled() const { return enabled_; }

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t stores() const { return stores_.load(); }
  /// Entries that existed on disk but failed to parse (corrupt or written by
  /// another schema version) and were demoted to misses.
  std::uint64_t demotions() const { return demotions_.load(); }

 private:
  std::string path_for(const RunSpec& spec) const;

  std::string dir_;
  bool enabled_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
  mutable std::atomic<std::uint64_t> demotions_{0};
};

}  // namespace ones::exp
