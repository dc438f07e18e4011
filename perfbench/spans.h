#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Host-time clocks and the in-memory span recorder of the traced run.
// Spans are recorded from the benchmark's own files, around its calls
// into the program's public API; nothing inside the program is
// instrumented. An untraced run passes a null recorder, so every span
// site reduces to a pointer test.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
int64_t WallNs();
/// CPU time consumed by this process, nanoseconds.
int64_t CpuNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, or -1 for a root.
  int parent = -1;
  /// Identifies the workload run the span belongs to.
  uint64_t run_id = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id) : run_id_(run_id) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(std::string_view name);
  void End(int index);

  /// Writes the spans as a JSON array, one object per span; a span's
  /// self time is its duration minus its children's.
  bool WriteJson(const std::string& path) const;

 private:
  uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; inert when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
