#ifndef SLACKER_TESTING_BINARY_HEAP_QUEUE_H_
#define SLACKER_TESTING_BINARY_HEAP_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/common/units.h"

namespace slacker::sim {

/// The pre-timer-wheel event queue, kept verbatim as (a) the reference
/// implementation for the old-vs-new determinism property test and
/// (b) the baseline the `bench/perf_simspeed` harness measures the
/// wheel's speedup against.
///
/// Costs the wheel was built to remove: every Schedule heap-allocates
/// the std::function capture and an unordered_set node, Cancel leaves
/// a tombstone in `cancelled_` until the entry surfaces at the heap
/// top (unbounded under cancel-heavy churn against far-future events),
/// and push/pop are O(log n) moves of 56-byte closures.
class BinaryHeapEventQueue {
 public:
  using EventId = uint64_t;

  EventId Schedule(SimTime when, std::function<void()> fn);

  /// Cancelling an already-fired or unknown id is a no-op and returns
  /// false.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Time of the earliest pending event. Requires !empty().
  SimTime NextTime() const;

  /// Pops and runs the earliest pending event; returns its time.
  /// Requires !empty().
  SimTime RunNext();

  /// Tombstones still held for cancelled-but-not-yet-popped events
  /// (the unbounded-growth defect the wheel fixes; exposed so the
  /// regression test can demonstrate the contrast).
  size_t tombstones() const { return cancelled_.size() + pending_.size(); }

 private:
  struct Event {
    SimTime when;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;  // FIFO among simultaneous events.
    }
  };

  void SkipCancelled() const;

  mutable std::priority_queue<Event, std::vector<Event>, Later> heap_;
  mutable std::unordered_set<EventId> cancelled_;
  std::unordered_set<EventId> pending_;
  EventId next_id_ = 1;
  size_t live_count_ = 0;
};

}  // namespace slacker::sim

#endif  // SLACKER_TESTING_BINARY_HEAP_QUEUE_H_
