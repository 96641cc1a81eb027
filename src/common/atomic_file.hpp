// Crash-safe output files: readers see either the old file or the complete
// new one, never a partial write.
#pragma once

#include <fstream>
#include <ostream>
#include <string>

namespace ones::common {

/// An output file that appears at `path` only on commit(). The bytes go to
/// `<path>.tmp<pid>.<n>`, a name no other writer — thread or process — uses,
/// and commit() renames it over `path` (atomic within one filesystem).
/// Destroying an uncommitted file removes the temp file.
class AtomicFile {
 public:
  /// Throws std::runtime_error when the temp file cannot be opened.
  explicit AtomicFile(std::string path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ostream& out() { return out_; }
  const std::string& path() const { return path_; }

  /// Flush, close and rename into place; throws std::runtime_error on a
  /// failed write (the temp file is removed). No-op once committed.
  void commit();

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  bool done_ = false;
};

/// One-shot form: `write(std::ostream&)` fills the file, then it is
/// committed.
template <typename WriteFn>
void write_file_atomically(const std::string& path, WriteFn&& write) {
  AtomicFile file(path);
  write(file.out());
  file.commit();
}

}  // namespace ones::common
