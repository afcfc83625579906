#pragma once
/// \file timer.hpp
/// \brief Wall-clock timing and named phase accumulation.
///
/// The paper reports per-phase wall-clock times (Table II, Figs. 3-4).
/// PhaseTimer accumulates named intervals so the driver can report the
/// same breakdown (Upward, U-list, V-list, W-list, X-list, Downward,
/// Comm, ...).
///
/// PhaseTimer is a thin wrapper over the obs span tracer: when a
/// recorder is bound (comm::Runtime binds one per rank), every Scope is
/// measured by exactly one obs span — the tracer is the single source
/// of truth, and the flat phase map is derived from the same
/// measurement, so trace and table can never disagree.

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pkifmm {

/// Monotonic wall-clock stopwatch, seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU time in seconds (excludes time blocked on condition
/// variables). With simulated ranks sharing physical cores, this — not
/// wall time — measures the work a rank actually performed, and is what
/// the benches combine with the interconnect model to produce per-rank
/// "cluster" times.
double thread_cpu_seconds();

/// Sum of the times in `phases` whose names start with `prefix`,
/// skipping sub-stages: a phase whose parent ("eval.vli" for
/// "eval.vli.fwd") is itself in the map breaks down the parent's time
/// and would otherwise be counted twice.
double sum_phase_prefix(const std::map<std::string, double>& phases,
                        const std::string& prefix);

/// Accumulates wall and thread-CPU time into named phases. Not
/// thread-safe: each simulated rank owns its own PhaseTimer. A phase
/// named "<parent>.<stage>" next to a recorded "<parent>" is a sub-stage
/// of it (see sum_phase_prefix).
class PhaseTimer {
 public:
  /// RAII scope that adds its lifetime to the named phase. With a bound
  /// recorder the interval is measured once, by the obs span; without
  /// one (standalone PhaseTimer, e.g. in unit tests) it self-measures.
  class Scope {
   public:
    Scope(PhaseTimer& owner, std::string name)
        : owner_(owner), name_(std::move(name)) {
      if (owner_.rec_ != nullptr)
        span_.emplace(*owner_.rec_, name_);
      else
        cpu_start_ = thread_cpu_seconds();
    }
    ~Scope() {
      if (span_) {
        const auto d = span_->close();
        owner_.add(name_, d.wall, d.cpu);
      } else {
        owner_.add(name_, timer_.seconds(),
                   thread_cpu_seconds() - cpu_start_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimer& owner_;
    std::string name_;
    std::optional<obs::Recorder::Span> span_;
    Timer timer_;
    double cpu_start_ = 0.0;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  /// Binds the per-rank recorder; scopes then record spans too.
  void bind(obs::Recorder* rec) { rec_ = rec; }
  obs::Recorder* recorder() const { return rec_; }

  void add(const std::string& name, double wall_seconds,
           double cpu_seconds = 0.0) {
    phases_[name] += wall_seconds;
    cpu_phases_[name] += cpu_seconds;
  }

  double get(const std::string& name) const {
    auto it = phases_.find(name);
    return it == phases_.end() ? 0.0 : it->second;
  }

  double get_cpu(const std::string& name) const {
    auto it = cpu_phases_.find(name);
    return it == cpu_phases_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, double>& phases() const { return phases_; }
  const std::map<std::string, double>& cpu_phases() const {
    return cpu_phases_;
  }

  void clear() {
    phases_.clear();
    cpu_phases_.clear();
  }

 private:
  std::map<std::string, double> phases_;
  std::map<std::string, double> cpu_phases_;
  obs::Recorder* rec_ = nullptr;
};

}  // namespace pkifmm
