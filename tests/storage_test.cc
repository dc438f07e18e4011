// Tests for buffer pool LRU behaviour, tablespace geometry, record
// digests, and the data-directory inventory.

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/data_directory.h"
#include "src/storage/record.h"
#include "src/storage/tablespace.h"

namespace slacker::storage {
namespace {

// ---------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(BufferPoolOptions{4});
  EXPECT_FALSE(pool.Touch(1, false).hit);
  EXPECT_TRUE(pool.Touch(1, false).hit);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_DOUBLE_EQ(pool.HitRate(), 0.5);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(BufferPoolOptions{3});
  pool.Touch(1, false);
  pool.Touch(2, false);
  pool.Touch(3, false);
  pool.Touch(1, false);  // 1 is now MRU; LRU order: 2, 3, 1.
  pool.Touch(4, false);  // Evicts 2.
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
}

TEST(BufferPoolTest, DirtyEvictionReportsWriteback) {
  BufferPool pool(BufferPoolOptions{2});
  pool.Touch(1, true);  // Dirty.
  pool.Touch(2, false);
  const PageAccess access = pool.Touch(3, false);  // Evicts dirty page 1.
  EXPECT_TRUE(access.evicted_dirty);
  EXPECT_EQ(access.evicted_page, 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, CleanEvictionNoWriteback) {
  BufferPool pool(BufferPoolOptions{2});
  pool.Touch(1, false);
  pool.Touch(2, false);
  EXPECT_FALSE(pool.Touch(3, false).evicted_dirty);
}

TEST(BufferPoolTest, RedirtyingResidentPage) {
  BufferPool pool(BufferPoolOptions{4});
  pool.Touch(1, false);
  EXPECT_FALSE(pool.IsDirty(1));
  pool.Touch(1, true);
  EXPECT_TRUE(pool.IsDirty(1));
  EXPECT_EQ(pool.dirty_pages(), 1u);
  pool.Touch(1, true);  // Already dirty; count must not double.
  EXPECT_EQ(pool.dirty_pages(), 1u);
}

TEST(BufferPoolTest, FlushAllCleansEverything) {
  BufferPool pool(BufferPoolOptions{8});
  for (uint64_t p = 0; p < 5; ++p) pool.Touch(p, true);
  EXPECT_EQ(pool.FlushAll(), 5u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
  EXPECT_EQ(pool.resident_pages(), 5u);  // Still cached, just clean.
}

TEST(BufferPoolTest, CapacityNeverExceeded) {
  BufferPool pool(BufferPoolOptions{16});
  for (uint64_t p = 0; p < 1000; ++p) pool.Touch(p, p % 3 == 0);
  EXPECT_LE(pool.resident_pages(), 16u);
}

TEST(BufferPoolTest, SteadyStateHitRateMatchesResidentFraction) {
  // Uniform access over N pages with capacity C: hit rate ≈ C/N. This
  // is the mechanism behind the paper's 128 MB buffer / 1 GB tenant
  // disk pressure.
  const size_t capacity = 128, pages = 1024;
  BufferPool pool(BufferPoolOptions{capacity});
  uint64_t state = 88172645463325252ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 20000; ++i) pool.Touch(next() % pages, false);
  pool.ResetStats();
  for (int i = 0; i < 200000; ++i) pool.Touch(next() % pages, false);
  EXPECT_NEAR(pool.HitRate(), static_cast<double>(capacity) / pages, 0.01);
}

TEST(BufferPoolTest, ClearEmptiesPool) {
  BufferPool pool(BufferPoolOptions{4});
  pool.Touch(1, true);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
  EXPECT_FALSE(pool.Contains(1));
}

// The list + hash-map LRU the flat pool replaced, kept as the reference
// model: the flat pool must match it decision for decision.
class ListMapPool {
 public:
  explicit ListMapPool(size_t capacity) : capacity_(capacity) {}

  PageAccess Touch(uint64_t page_id, bool make_dirty) {
    PageAccess result;
    auto it = table_.find(page_id);
    if (it != table_.end()) {
      result.hit = true;
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      if (make_dirty && !it->second->dirty) {
        it->second->dirty = true;
        ++dirty_count_;
      }
      return result;
    }
    ++misses_;
    if (table_.size() >= capacity_ && !lru_.empty()) {
      const Frame& victim = lru_.back();
      if (victim.dirty) {
        result.evicted_dirty = true;
        result.evicted_page = victim.page_id;
        --dirty_count_;
      }
      table_.erase(victim.page_id);
      lru_.pop_back();
    }
    lru_.push_front(Frame{page_id, make_dirty});
    table_[page_id] = lru_.begin();
    if (make_dirty) ++dirty_count_;
    return result;
  }

  bool Contains(uint64_t page_id) const { return table_.count(page_id) > 0; }
  bool IsDirty(uint64_t page_id) const {
    auto it = table_.find(page_id);
    return it != table_.end() && it->second->dirty;
  }
  size_t FlushAll() {
    size_t flushed = 0;
    for (Frame& frame : lru_) {
      if (frame.dirty) {
        frame.dirty = false;
        ++flushed;
      }
    }
    dirty_count_ = 0;
    return flushed;
  }
  void Clear() {
    lru_.clear();
    table_.clear();
    dirty_count_ = 0;
  }
  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
  }
  size_t resident_pages() const { return table_.size(); }
  size_t dirty_pages() const { return dirty_count_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Frame {
    uint64_t page_id;
    bool dirty;
  };
  size_t capacity_;
  std::list<Frame> lru_;
  std::unordered_map<uint64_t, std::list<Frame>::iterator> table_;
  size_t dirty_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Engine-shaped page ids: (tenant << 40) | page, three tenants.
uint64_t UniversePage(uint64_t i) { return ((i % 3 + 1) << 40) | (i / 3); }

TEST(BufferPoolTest, MatchesListMapReferenceOnRandomSequences) {
  for (size_t capacity : {0, 1, 2, 7, 64, 1024}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << " seed " << seed);
      BufferPool pool(BufferPoolOptions{capacity});
      ListMapPool model(capacity);
      Rng rng(seed * 7919 + capacity);
      // Half the touches fall in a hot set smaller than the pool (hits
      // and recency reordering), half over three times the pool
      // (misses and evictions).
      const uint64_t hot = capacity / 2 + 1;
      const uint64_t universe = 3 * capacity + 8;
      auto same_page_state = [&](uint64_t page) {
        ASSERT_EQ(pool.Contains(page), model.Contains(page)) << page;
        ASSERT_EQ(pool.IsDirty(page), model.IsDirty(page)) << page;
      };
      for (int step = 0; step < 6000; ++step) {
        const uint64_t roll = rng.NextBelow(1000);
        if (roll < 12) {
          ASSERT_EQ(pool.FlushAll(), model.FlushAll());
        } else if (roll < 14) {
          pool.Clear();
          model.Clear();
        } else if (roll < 20) {
          pool.ResetStats();
          model.ResetStats();
        } else {
          const uint64_t page = UniversePage(
              rng.NextBelow(rng.NextBelow(2) == 0 ? hot : universe));
          const bool dirty = rng.NextBelow(10) < 3;
          const PageAccess got = pool.Touch(page, dirty);
          const PageAccess want = model.Touch(page, dirty);
          ASSERT_EQ(got.hit, want.hit) << "step " << step;
          ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "step " << step;
          ASSERT_EQ(got.evicted_page, want.evicted_page) << "step " << step;
          same_page_state(page);
          if (want.evicted_dirty) same_page_state(want.evicted_page);
        }
        ASSERT_EQ(pool.resident_pages(), model.resident_pages());
        ASSERT_EQ(pool.dirty_pages(), model.dirty_pages());
        ASSERT_EQ(pool.hits(), model.hits());
        ASSERT_EQ(pool.misses(), model.misses());
        same_page_state(UniversePage(rng.NextBelow(universe)));
        // Every few steps, every page in the universe.
        if (step % 8 == 0) {
          for (uint64_t i = 0; i < universe; ++i) {
            same_page_state(UniversePage(i));
          }
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------- Tablespace

TEST(TablespaceTest, DefaultGeometryIsOneGiB) {
  TablespaceLayout layout;
  EXPECT_EQ(layout.RecordsPerPage(), 16u);
  EXPECT_EQ(layout.record_count, kGiB / kKiB);
  EXPECT_EQ(layout.DataBytes(), kGiB);
}

TEST(TablespaceTest, PageOfMapsDenseKeys) {
  TablespaceLayout layout;
  EXPECT_EQ(layout.PageOf(0), 0u);
  EXPECT_EQ(layout.PageOf(15), 0u);
  EXPECT_EQ(layout.PageOf(16), 1u);
  EXPECT_EQ(layout.PageOf(31), 1u);
}

TEST(TablespaceTest, PagesForRoundsUp) {
  TablespaceLayout layout;
  EXPECT_EQ(layout.PagesFor(0), 0u);
  EXPECT_EQ(layout.PagesFor(1), 1u);
  EXPECT_EQ(layout.PagesFor(16), 1u);
  EXPECT_EQ(layout.PagesFor(17), 2u);
}

TEST(TablespaceTest, CustomGeometry) {
  TablespaceLayout layout;
  layout.page_bytes = 4 * kKiB;
  layout.record_bytes = 512;
  layout.record_count = 1000;
  EXPECT_EQ(layout.RecordsPerPage(), 8u);
  EXPECT_EQ(layout.TotalPages(), 125u);
  EXPECT_EQ(layout.DataBytes(), 125u * 4 * kKiB);
}

// ---------------------------------------------------------------- Record

TEST(RecordTest, RowDigestDependsOnAllInputs) {
  const uint64_t base = RowDigest(1, 2, 3);
  EXPECT_EQ(base, RowDigest(1, 2, 3));
  EXPECT_NE(base, RowDigest(2, 2, 3));
  EXPECT_NE(base, RowDigest(1, 3, 3));
  EXPECT_NE(base, RowDigest(1, 2, 4));
}

TEST(RecordTest, MaterializePayloadDeterministic) {
  Record r{42, 7, RowDigest(42, 7, 1)};
  const auto a = MaterializePayload(r, kKiB);
  const auto b = MaterializePayload(r, kKiB);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), kKiB);
  Record other{42, 8, RowDigest(42, 8, 1)};
  EXPECT_NE(MaterializePayload(other, kKiB), a);
}

// ---------------------------------------------------------------- DataDirectory

TEST(DataDirectoryTest, TenantInventory) {
  DataDirectory dir = DataDirectory::ForTenant(5, kGiB, 12345);
  EXPECT_EQ(dir.files().size(), 3u);
  EXPECT_EQ(dir.TotalBytes(), kGiB + 12345 + 4096);
  EXPECT_NE(dir.path().find("tenant_5"), std::string::npos);
}

TEST(DataDirectoryTest, SetFileSizeUpdatesOrAdds) {
  DataDirectory dir = DataDirectory::ForTenant(1, 100, 10);
  dir.SetFileSize("ibdata1", 200);
  EXPECT_EQ(dir.TotalBytes(), 200u + 10 + 4096);
  dir.SetFileSize("binlog.000002", 50);
  EXPECT_EQ(dir.files().size(), 4u);
}

}  // namespace
}  // namespace slacker::storage
