#include "obs/hw.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace pkifmm::obs {

std::uint64_t peak_rss_bytes() {
  std::uint64_t b = 0;
#if defined(__linux__)
  // "VmHWM:   <n> kB" from /proc/self/status.
  if (FILE* f = std::fopen("/proc/self/status", "re")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        b = std::strtoull(line + 6, nullptr, 10) * 1024ULL;
        break;
      }
    }
    std::fclose(f);
  }
  if (b == 0) {
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
      b = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ULL;  // kB on Linux
  }
#endif
  return b;
}

}  // namespace pkifmm::obs
