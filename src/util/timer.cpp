#include "util/timer.hpp"

namespace pkifmm {

double thread_cpu_seconds() { return obs::thread_cpu_seconds(); }

double sum_phase_prefix(const std::map<std::string, double>& phases,
                        const std::string& prefix) {
  double total = 0.0;
  for (const auto& [name, v] : phases) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos && dot >= prefix.size() &&
        phases.count(name.substr(0, dot)))
      continue;
    total += v;
  }
  return total;
}

}  // namespace pkifmm
