#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>

namespace pkifmm::obs {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double RankMetrics::child_wall_sum(std::size_t i) const {
  double total = 0.0;
  for (const SpanEvent& e : spans)
    if (e.parent == static_cast<std::int32_t>(i)) total += e.wall;
  return total;
}

std::size_t Recorder::open_span(std::string name) {
  SpanEvent e;
  e.name = std::move(name);
  e.start = wall_seconds() - epoch_;
  e.parent = open_.empty() ? -1
                           : static_cast<std::int32_t>(open_.back().idx);
  e.depth = static_cast<std::int32_t>(open_.size());
  const std::size_t idx = metrics_.spans.size();
  metrics_.spans.push_back(std::move(e));
  open_.push_back(
      {idx, thread_cpu_seconds(), flops_total_, msgs_total_, bytes_total_});
  return idx;
}

const SpanEvent& Recorder::close_span(std::size_t idx) {
  PKIFMM_CHECK_MSG(!open_.empty() && open_.back().idx == idx,
                   "spans must close innermost-first");
  const OpenSpan o = open_.back();
  open_.pop_back();
  SpanEvent& e = metrics_.spans[idx];
  e.wall = wall_seconds() - epoch_ - e.start;
  e.cpu = thread_cpu_seconds() - o.cpu_start;
  e.flops = flops_total_ - o.flops0;
  e.msgs = msgs_total_ - o.msgs0;
  e.bytes = bytes_total_ - o.bytes0;
  return e;
}

void Recorder::record_flows(const std::vector<FlowEvent>& flows,
                            const std::vector<std::string>& phases) {
  std::vector<std::int32_t> remap(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    auto it = std::find(metrics_.flow_phases.begin(),
                        metrics_.flow_phases.end(), phases[i]);
    if (it == metrics_.flow_phases.end()) {
      remap[i] = static_cast<std::int32_t>(metrics_.flow_phases.size());
      metrics_.flow_phases.push_back(phases[i]);
    } else {
      remap[i] =
          static_cast<std::int32_t>(it - metrics_.flow_phases.begin());
    }
  }
  metrics_.flows.reserve(metrics_.flows.size() + flows.size());
  for (FlowEvent e : flows) {
    PKIFMM_DCHECK(e.phase >= 0 &&
                  static_cast<std::size_t>(e.phase) < phases.size());
    e.phase = remap[static_cast<std::size_t>(e.phase)];
    metrics_.flows.push_back(e);
  }
}

}  // namespace pkifmm::obs
