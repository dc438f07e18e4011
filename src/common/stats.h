#ifndef SLACKER_COMMON_STATS_H_
#define SLACKER_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slacker {

/// Streaming mean/variance/min/max via Welford's algorithm. O(1) per
/// observation; numerically stable for long runs.
class RunningStats {
 public:
  void Add(double x);
  void Reset();
  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 with fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile over a recorded sample vector. Keeps every observation;
/// intended for per-experiment traces (bounded by experiment length),
/// not unbounded production telemetry.
class PercentileTracker {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t count() const { return values_.size(); }

  /// p in [0, 100]; nearest-rank percentile. Returns 0 when empty.
  double Percentile(double p) const;
  double Mean() const;
  double Stddev() const;

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace slacker

#endif  // SLACKER_COMMON_STATS_H_
