#include "src/control/latency_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace slacker::control {

LatencyMonitor::LatencyMonitor(SimTime window) : window_(window) {}

void LatencyMonitor::Evict(SimTime now) {
  while (!samples_.empty() && samples_.front().time <= now - window_) {
    sum_ -= samples_.front().latency_ms;
    samples_.pop_front();
  }
}

void LatencyMonitor::Record(SimTime now, double latency_ms) {
  samples_.push_back({now, latency_ms});
  sum_ += latency_ms;
  Evict(now);
  ++total_recorded_;
  // Keep the "last known average" fresh even if nobody polls between
  // recordings, so a later empty-window read reports recent reality.
  last_average_ =
      samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

void LatencyMonitor::SetOutstandingProbe(
    std::function<double(SimTime)> probe) {
  probe_ = std::move(probe);
}

double LatencyMonitor::WindowAverageMs(SimTime now) {
  Evict(now);
  if (!samples_.empty()) {
    last_average_ = sum_ / static_cast<double>(samples_.size());
    return last_average_;
  }
  // Nothing completed recently. If transactions are stuck in flight,
  // their age is a *lower bound* on the latency they will report —
  // use it so the controller sees the overload.
  if (probe_) {
    const double pending_age = probe_(now);
    if (pending_age > 0.0) {
      return std::max(pending_age, last_average_);
    }
  }
  return last_average_;
}

size_t LatencyMonitor::WindowCount(SimTime now) {
  Evict(now);
  return samples_.size();
}

bool LatencyMonitor::WithinGuardBand(SimTime now, double setpoint_ms,
                                     double band_fraction) {
  if (setpoint_ms <= 0.0) return false;
  return WindowAverageMs(now) >= setpoint_ms * (1.0 - band_fraction);
}

double LatencyMonitor::WindowPercentileMs(SimTime now, double percentile) {
  // Skip, do not pop, the expired prefix: popping here would take those
  // samples out of `sum_` at a point the mean path never evicts at.
  size_t first = 0;
  while (first < samples_.size() && samples_[first].time <= now - window_) {
    ++first;
  }
  if (first == samples_.size()) return WindowAverageMs(now);
  // Reuse the scratch buffer across ticks; clear() keeps capacity.
  std::vector<double>& values = percentile_scratch_;
  values.clear();
  values.reserve(samples_.size() - first);
  for (size_t i = first; i < samples_.size(); ++i) {
    values.push_back(samples_[i].latency_ms);
  }
  if (percentile <= 0.0) {
    return *std::min_element(values.begin(), values.end());
  }
  if (percentile >= 100.0) {
    return *std::max_element(values.begin(), values.end());
  }
  // Nearest-rank percentile via selection, not a full sort — this runs
  // once per controller tick per monitor, and the window can hold
  // thousands of completions on a busy server.
  const auto rank = static_cast<size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

}  // namespace slacker::control
