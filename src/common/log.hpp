// Warning lines for the simulator.
//
// Components report recoverable trouble (a discarded cache entry, a run that
// ended with unfinished jobs) through ONES_WARN << ...; each statement writes
// one line "[WARN] file:line msg" to stderr.
#pragma once

#include <sstream>

namespace ones::detail {

/// Accumulates one warning line and flushes it to stderr on destruction.
class WarnLine {
 public:
  WarnLine(const char* file, int line);
  ~WarnLine();
  WarnLine(const WarnLine&) = delete;
  WarnLine& operator=(const WarnLine&) = delete;

  template <typename T>
  WarnLine& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  std::ostringstream os_;
};

}  // namespace ones::detail

#define ONES_WARN ::ones::detail::WarnLine(__FILE__, __LINE__)
