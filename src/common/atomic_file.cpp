#include "common/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace ones::common {

namespace {

/// `.tmp<pid>.<n>`: the pid separates processes sharing an output directory,
/// the counter separates writers within one process.
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return ".tmp" + std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_(path_ + unique_tmp_suffix()) {
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("cannot open '" + tmp_ + "'");
}

AtomicFile::~AtomicFile() {
  if (done_) return;
  out_.close();
  std::remove(tmp_.c_str());
}

void AtomicFile::commit() {
  if (done_) return;
  done_ = true;
  out_.flush();
  const bool written = out_.good();
  out_.close();
  if (!written || out_.fail()) {
    std::remove(tmp_.c_str());
    throw std::runtime_error("failed writing '" + tmp_ + "'");
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    throw std::runtime_error("cannot rename '" + tmp_ + "' to '" + path_ + "'");
  }
}

}  // namespace ones::common
