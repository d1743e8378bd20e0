#include "util/stats.h"

#include <algorithm>
#include <cassert>

namespace gpunion::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void TimeWeightedValue::set(double t, double value) {
  assert(segments_.empty() || t >= segments_.back().start);
  if (!segments_.empty() && segments_.back().start == t) {
    segments_.back().value = value;
  } else {
    segments_.push_back({t, value});
  }
  value_ = value;
}

double TimeWeightedValue::average(double t0, double t1) const {
  assert(t1 >= t0);
  if (t1 == t0) return value_;
  double integral = 0;
  double cur_t = t0;
  double cur_value = initial_;
  for (const auto& seg : segments_) {
    if (seg.start <= t0) {
      cur_value = seg.value;  // signal value already in effect at t0
      continue;
    }
    if (seg.start >= t1) break;
    integral += (seg.start - cur_t) * cur_value;
    cur_t = seg.start;
    cur_value = seg.value;
  }
  integral += (t1 - cur_t) * cur_value;
  return integral / (t1 - t0);
}

}  // namespace gpunion::util
