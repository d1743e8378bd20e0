// Small statistics helpers used by the monitoring system and benches.
#pragma once

#include <cstddef>
#include <vector>

namespace gpunion::util {

/// Running mean / min / max / variance (Welford).  O(1) space.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Collects samples and answers percentile queries.  O(n log n) on query.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  /// Nearest-rank percentile, p in [0, 100].  Returns 0 when empty.
  double percentile(double p) const;
  double min() const { return percentile(0); }
  double median() const { return percentile(50); }
  double max() const { return percentile(100); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Time-weighted average of a piecewise-constant signal, e.g. GPU busy
/// fraction.  Feed change-points with set(t, value); query over [t0, t1].
class TimeWeightedValue {
 public:
  explicit TimeWeightedValue(double initial = 0.0)
      : initial_(initial), value_(initial) {}

  /// Records that the signal takes `value` from time `t` on.
  /// Times must be non-decreasing.
  void set(double t, double value);

  /// Time-weighted mean of the signal over [t0, t1]; t1 > t0.
  double average(double t0, double t1) const;

  double current() const { return value_; }

 private:
  struct Segment {
    double start;
    double value;
  };
  double initial_;
  std::vector<Segment> segments_;
  double value_;
};

}  // namespace gpunion::util
