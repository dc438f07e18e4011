#ifndef SLACKER_STORAGE_BUFFER_POOL_H_
#define SLACKER_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slacker::storage {

struct BufferPoolOptions {
  /// Number of page frames. The paper sets the InnoDB buffer to 128 MB
  /// against a 1 GB tenant precisely to force disk activity; with 16 KiB
  /// pages that is 8192 frames.
  size_t capacity_pages = 8192;
};

/// Result of touching a page in the pool.
struct PageAccess {
  /// True if the page was already resident (no disk read needed).
  bool hit = false;
  /// True if a dirty page had to be evicted to make room; the engine
  /// issues the corresponding background write-back I/O.
  bool evicted_dirty = false;
  /// The evicted page when `evicted_dirty`, else 0.
  uint64_t evicted_page = 0;
};

/// LRU page cache bookkeeping for one tenant. Purely a state machine:
/// it decides hit/miss/eviction, while the engine charges the simulated
/// I/O. Keeping policy separate from timing lets the unit tests verify
/// LRU behaviour exactly.
///
/// Exact LRU: a miss on a full pool evicts the least recently touched
/// page (the victim order is part of the golden-output contract). The
/// frames live in one vector threaded by 32-bit prev/next indices into
/// an intrusive recency list, and an open-addressed table (linear
/// probing, backward-shift deletion) maps page id to frame index. Both
/// grow on demand up to the capacity; nothing is allocated per touch.
class BufferPool {
 public:
  explicit BufferPool(BufferPoolOptions options);

  /// Touches `page_id`, loading it (evicting LRU if full) on a miss.
  /// `make_dirty` marks the page dirty (a row write). A capacity of 0
  /// behaves as 1: the pool always holds the last page touched.
  PageAccess Touch(uint64_t page_id, bool make_dirty);

  /// Whether the page is currently resident (does not affect LRU order).
  bool Contains(uint64_t page_id) const;
  bool IsDirty(uint64_t page_id) const;

  /// Writes back all dirty pages (checkpoint); returns how many were
  /// dirty. The engine charges the corresponding sequential write I/O.
  size_t FlushAll();

  /// Drops everything and releases the frames (tenant deletion /
  /// post-migration teardown).
  void Clear();

  size_t resident_pages() const { return frames_.size(); }
  size_t dirty_pages() const { return dirty_count_; }
  size_t capacity() const { return options_.capacity_pages; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double HitRate() const;
  void ResetStats();

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Frame {
    uint64_t page_id;
    uint32_t prev;  // Toward the most recently used end.
    uint32_t next;  // Toward the least recently used end.
    bool dirty;
  };
  struct Slot {
    uint64_t page_id;
    uint32_t frame;  // kNone = empty slot.
  };

  /// Slot holding `page_id`, or the empty slot that ends its probe run.
  size_t Probe(uint64_t page_id) const;
  size_t Home(uint64_t page_id) const;
  /// Empties `slot` and shifts later entries of its run back so every
  /// probe run stays contiguous.
  void EraseSlot(size_t slot);
  /// Doubles the table and reinserts every resident page.
  void Grow();
  void Unlink(uint32_t frame);
  void PushFront(uint32_t frame);

  BufferPoolOptions options_;
  std::vector<Frame> frames_;
  std::vector<Slot> slots_;  // Size is 0 or a power of two.
  int shift_ = 64;           // 64 - log2(slots_.size()).
  uint32_t head_ = kNone;    // Most recently used.
  uint32_t tail_ = kNone;    // Least recently used: the next victim.
  size_t dirty_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_BUFFER_POOL_H_
