#include "common/log.hpp"

#include <iostream>

namespace ones::detail {

WarnLine::WarnLine(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  os_ << "[WARN] " << base << ":" << line << " ";
}

WarnLine::~WarnLine() {
  os_ << "\n";
  std::cerr << os_.str();
}

}  // namespace ones::detail
