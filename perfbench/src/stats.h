// The benchmark's own arithmetic: nearest-rank percentiles, span self
// time, the warm-up stability rule and the ratio bases the reported
// fractions use. Header-only so tests/arith_test.cc checks exactly the
// code the benchmark runs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample such that at least q% of
// the samples are <= it, i.e. sorted[ceil(q/100 * n) - 1]. q in (0, 100].
// NaN for an empty sample. Sorts a copy.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

// `part` over `whole`, NaN when the base is empty — a fraction with no
// base is reported as missing, never as 0.
inline double Fraction(double part, double whole) {
  return whole > 0.0 ? part / whole : std::nan("");
}

// failed_frac's base is every operation attempted: failed (non-OK status,
// shed, or a mismatching output) over attempted.
inline double FailedFraction(int64_t failed, int64_t attempted) {
  return Fraction(static_cast<double>(failed), static_cast<double>(attempted));
}

// split.pruned_frac's base is every candidate split point the finder
// considered: pruned over pruned + scored (scored = dispersion
// evaluations). Bound evaluations are a cost, not a candidate, so they are
// in neither term.
inline double PrunedFraction(int64_t candidates_pruned,
                             int64_t dispersion_evaluations) {
  return Fraction(static_cast<double>(candidates_pruned),
                  static_cast<double>(candidates_pruned +
                                      dispersion_evaluations));
}

// Self time of a span [start, end): its duration minus the part of that
// interval covered by at least one child span. Children may overlap each
// other and may stick out of the parent; only the covered part inside the
// parent is subtracted, and overlapping children are counted once.
inline int64_t SelfTime(int64_t start, int64_t end,
                        std::vector<std::pair<int64_t, int64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;  // everything before cursor is accounted for
  for (const auto& [child_start, child_end] : children) {
    const int64_t lo = std::max(child_start, cursor);
    const int64_t hi = std::min(child_end, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (end - start) - covered;
}

// Warm-up rule after the moving-average loop of a thermal settle script:
// keep sampling the phase's headline metric; the phase is steady once the
// mean of the last `window` samples is within `rel_delta` of the newest
// sample, after at least `min_samples` samples. The caller enforces the
// timeout.
class SteadyDetector {
 public:
  SteadyDetector(size_t window, double rel_delta, size_t min_samples)
      : window_(window), rel_delta_(rel_delta), min_samples_(min_samples) {}

  // Adds one sample; returns true once the phase counts as steady.
  bool Add(double sample) {
    ++seen_;
    bool steady = false;
    if (recent_.size() == window_) {
      double sum = 0.0;
      for (double x : recent_) sum += x;
      const double mean = sum / static_cast<double>(window_);
      steady = seen_ >= min_samples_ &&
               std::abs(mean - sample) <= rel_delta_ * std::abs(mean);
      recent_.pop_front();
    }
    recent_.push_back(sample);
    return steady;
  }

  size_t samples() const { return seen_; }

 private:
  size_t window_;
  double rel_delta_;
  size_t min_samples_;
  size_t seen_ = 0;
  std::deque<double> recent_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
