#pragma once
/// \file stats.hpp
/// \brief Small statistics helpers for per-rank metric aggregation.
///
/// The paper reports "Max" and "Avg" across processes for every phase
/// (Table II); Summary computes exactly those reductions over a vector
/// of per-rank values.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>

#include "util/check.hpp"

namespace pkifmm {

/// Max/avg/min/stddev over a set of per-rank samples.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double avg = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;

  static Summary of(std::span<const double> xs) {
    Summary s;
    s.count = xs.size();
    if (xs.empty()) return s;
    s.min = *std::min_element(xs.begin(), xs.end());
    s.max = *std::max_element(xs.begin(), xs.end());
    s.avg = std::accumulate(xs.begin(), xs.end(), 0.0) /
            static_cast<double>(xs.size());
    double var = 0.0;
    for (double x : xs) var += (x - s.avg) * (x - s.avg);
    s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
    return s;
  }

  /// Load imbalance ratio: max/avg (1.0 = perfectly balanced). Defined
  /// only when the mean is finite and nonzero; for an empty set, an
  /// all-zero metric, or a degenerate (inf/nan) mean the ratio carries
  /// no information and 1.0 ("balanced") is reported instead of a
  /// misleading quotient. Samples may be signed: a negative mean yields
  /// max/avg as-is (callers aggregating signed gauges get the raw
  /// ratio, not a silently clamped one).
  double imbalance() const {
    if (!has_imbalance()) return 1.0;
    return max / avg;
  }

  /// True when the imbalance ratio is actually defined (nonempty set,
  /// finite nonzero mean). JSON emitters omit the "imbalance" field
  /// when this is false — a reader must not see a fabricated 1.0 for a
  /// phase that never ran (zero-wall) and mistake it for "measured and
  /// perfectly balanced".
  bool has_imbalance() const {
    return count > 0 && avg != 0.0 && std::isfinite(avg);
  }
};

/// Online mean/variance accumulator (Welford), plus a plain running
/// sum: avg × count drifts by an ulp on integer totals (byte counts,
/// digests), the running sum is exact for them.
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  /// Combines another accumulator into this one (Chan et al.'s
  /// parallel Welford update): the result is identical — up to
  /// floating-point reassociation — to having add()ed both sample
  /// streams into a single accumulator. This is what cross-rank
  /// aggregation uses to fold per-rank (or per-run) accumulators into
  /// one summary without revisiting the samples.
  void merge(const Accumulator& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double d = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    mean_ += d * nb / (na + nb);
    m2_ += other.m2_ + d * d * na * nb / (na + nb);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    n_ += other.n_;
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double sum() const { return sum_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { PKIFMM_CHECK(n_ > 0); return min_; }
  double max() const { PKIFMM_CHECK(n_ > 0); return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Relative L2 error between an approximate and a reference vector,
/// ||a - r||_2 / ||r||_2. This is the accuracy metric used in the FMM
/// literature when comparing against direct summation.
inline double rel_l2_error(std::span<const double> approx,
                           std::span<const double> ref) {
  PKIFMM_CHECK(approx.size() == ref.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = approx[i] - ref[i];
    num += d * d;
    den += ref[i] * ref[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace pkifmm
