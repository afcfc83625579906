#pragma once
/// \file tracer.hpp
/// \brief The benchmark's own span tracer: one span per call into a
/// layer's public function, kept in memory and written out at exit.
///
/// One Tracer per thread that makes calls (each simulated rank, plus
/// the main thread for Tables construction), so recording takes no
/// lock. A span has a name, start and end on the obs::wall_seconds()
/// clock (the clock the program's own phase spans use, so those can be
/// hung under the benchmark's spans), a parent index into the same
/// tracer, an iteration id and the rank. A disabled tracer records
/// nothing and reads no clock.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into the owning tracer's spans, -1 = root
  int iter = -1;    ///< iteration id; -1 = set-up
  int rank = -1;    ///< -1 = main thread
};

class Tracer {
 public:
  explicit Tracer(int rank = -1) : rank_(rank) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span around one call. Does nothing when the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int iter) : t_(&t) {
      if (!t.enabled_) {
        t_ = nullptr;
        return;
      }
      idx_ = t.open(std::move(name), iter);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Index of this span (valid only while the tracer is enabled).
    int index() const { return idx_; }

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  Scope span(std::string name, int iter) {
    return Scope(*this, std::move(name), iter);
  }

  /// Appends an already measured span (the program's phase spans).
  void add(Span s) {
    s.rank = rank_;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span i minus the part of it that its direct children
  /// cover (the union of their intervals, clipped to span i).
  double self_seconds(std::size_t i) const {
    std::vector<std::pair<double, double>> kids;
    for (const Span& s : spans_)
      if (s.parent == static_cast<int>(i))
        kids.emplace_back(std::max(s.start, spans_[i].start),
                          std::min(s.end, spans_[i].end));
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = spans_[i].start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    return (spans_[i].end - spans_[i].start) - covered;
  }

 private:
  int open(std::string name, int iter) {
    Span s;
    s.name = std::move(name);
    s.start = pkifmm::obs::wall_seconds();
    s.parent = open_.empty() ? -1 : open_.back();
    s.iter = iter;
    s.rank = rank_;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    open_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    spans_[idx].end = pkifmm::obs::wall_seconds();
    open_.pop_back();
  }

  int rank_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
