#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <bit>

namespace slacker::storage {

namespace {
// Fibonacci hashing: the top bits of page_id * 2^64/φ spread both the
// dense per-tenant page numbers and the tenant bits above them.
constexpr uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;
constexpr size_t kMinSlots = 16;
}  // namespace

BufferPool::BufferPool(BufferPoolOptions options) : options_(options) {}

size_t BufferPool::Home(uint64_t page_id) const {
  return static_cast<size_t>((page_id * kHashMultiplier) >> shift_);
}

size_t BufferPool::Probe(uint64_t page_id) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(page_id);
  while (slots_[i].frame != kNone && slots_[i].page_id != page_id) {
    i = (i + 1) & mask;
  }
  return i;
}

void BufferPool::EraseSlot(size_t slot) {
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; slots_[j].frame != kNone;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies cyclically
    // in (hole, j] — moving it then would put it before its home.
    const size_t home = Home(slots_[j].page_id);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].frame = kNone;
}

void BufferPool::Grow() {
  const size_t size = std::max(kMinSlots, slots_.size() * 2);
  slots_.assign(size, Slot{0, kNone});
  shift_ = 64 - std::countr_zero(size);
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    slots_[Probe(frames_[f].page_id)] = Slot{frames_[f].page_id, f};
  }
}

void BufferPool::Unlink(uint32_t frame) {
  const Frame& node = frames_[frame];
  if (node.prev != kNone) {
    frames_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNone) {
    frames_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void BufferPool::PushFront(uint32_t frame) {
  Frame& node = frames_[frame];
  node.prev = kNone;
  node.next = head_;
  if (head_ != kNone) {
    frames_[head_].prev = frame;
  } else {
    tail_ = frame;
  }
  head_ = frame;
}

PageAccess BufferPool::Touch(uint64_t page_id, bool make_dirty) {
  PageAccess result;
  if (!slots_.empty()) {
    const uint32_t hit = slots_[Probe(page_id)].frame;
    if (hit != kNone) {
      result.hit = true;
      ++hits_;
      if (hit != head_) {
        Unlink(hit);
        PushFront(hit);
      }
      Frame& node = frames_[hit];
      if (make_dirty && !node.dirty) {
        node.dirty = true;
        ++dirty_count_;
      }
      return result;
    }
  }

  ++misses_;
  uint32_t frame;
  if (frames_.size() >= options_.capacity_pages && !frames_.empty()) {
    // Reuse the LRU victim's frame for the incoming page.
    frame = tail_;
    const Frame& victim = frames_[frame];
    if (victim.dirty) {
      result.evicted_dirty = true;
      result.evicted_page = victim.page_id;
      --dirty_count_;
    }
    EraseSlot(Probe(victim.page_id));
    Unlink(frame);
    frames_[frame] = Frame{page_id, kNone, kNone, make_dirty};
  } else {
    // Keep the table at most half full so probe runs stay short.
    if ((frames_.size() + 1) * 2 > slots_.size()) Grow();
    frame = static_cast<uint32_t>(frames_.size());
    frames_.push_back(Frame{page_id, kNone, kNone, make_dirty});
  }
  slots_[Probe(page_id)] = Slot{page_id, frame};
  PushFront(frame);
  if (make_dirty) ++dirty_count_;
  return result;
}

bool BufferPool::Contains(uint64_t page_id) const {
  return !slots_.empty() && slots_[Probe(page_id)].frame != kNone;
}

bool BufferPool::IsDirty(uint64_t page_id) const {
  if (slots_.empty()) return false;
  const uint32_t frame = slots_[Probe(page_id)].frame;
  return frame != kNone && frames_[frame].dirty;
}

size_t BufferPool::FlushAll() {
  size_t flushed = 0;
  for (Frame& frame : frames_) {
    if (frame.dirty) {
      frame.dirty = false;
      ++flushed;
    }
  }
  dirty_count_ = 0;
  return flushed;
}

void BufferPool::Clear() {
  frames_ = {};
  slots_ = {};
  shift_ = 64;
  head_ = kNone;
  tail_ = kNone;
  dirty_count_ = 0;
}

double BufferPool::HitRate() const {
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void BufferPool::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace slacker::storage
