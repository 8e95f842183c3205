#include "bb/extent_index.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/units.hpp"
#include "rt/bml.hpp"

namespace iofwd::bb {
namespace {

std::vector<std::byte> fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// Reassemble the indexed bytes over [0, len) for content checks; holes are 0.
std::vector<std::byte> materialize(const ExtentIndex& idx, std::uint64_t len) {
  std::vector<std::byte> out(len, std::byte{0});
  for (const auto& seg : idx.segments(0, len)) {
    if (seg.ext == nullptr) continue;
    std::memcpy(out.data() + seg.offset, seg.ext->buf->data() + (seg.offset - seg.ext->start),
                seg.len);
  }
  return out;
}

TEST(ExtentIndex, SequentialAppendsStayOneExtent) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  // 4 KiB min class: the first insert leases 4 KiB, the rest fill in place.
  for (int i = 0; i < 4; ++i) {
    auto r = idx.insert(static_cast<std::uint64_t>(i) * 1024, fill(1024, 0xa), pool);
    ASSERT_TRUE(r.is_ok());
    if (i > 0) {
      EXPECT_EQ(r.value(), ExtentIndex::Insert::in_place);
    }
  }
  EXPECT_EQ(idx.extent_count(), 1u);
  EXPECT_EQ(idx.data_bytes(), 4096u);
  EXPECT_EQ(idx.dirty_bytes(), 4096u);
}

TEST(ExtentIndex, OutOfOrderWritesMergeIntoOneExtent) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  // Reverse order: a sequential aggregation window cannot absorb this.
  ASSERT_TRUE(idx.insert(8192, fill(4096, 3), pool).is_ok());
  ASSERT_TRUE(idx.insert(4096, fill(4096, 2), pool).is_ok());
  ASSERT_TRUE(idx.insert(0, fill(4096, 1), pool).is_ok());
  EXPECT_EQ(idx.extent_count(), 1u);
  EXPECT_EQ(idx.data_bytes(), 12288u);
  const auto m = materialize(idx, 12288);
  EXPECT_EQ(m[0], std::byte{1});
  EXPECT_EQ(m[4096], std::byte{2});
  EXPECT_EQ(m[8192], std::byte{3});
}

TEST(ExtentIndex, OverlappingWriteWins) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(8192, 1), pool).is_ok());
  ASSERT_TRUE(idx.insert(4096, fill(8192, 2), pool).is_ok());
  const auto m = materialize(idx, 12288);
  EXPECT_EQ(m[0], std::byte{1});
  EXPECT_EQ(m[4095], std::byte{1});
  EXPECT_EQ(m[4096], std::byte{2});
  EXPECT_EQ(m[12287], std::byte{2});
  EXPECT_EQ(idx.extent_count(), 1u);
}

TEST(ExtentIndex, DisjointWritesKeepSeparateExtents) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(1024, 1), pool).is_ok());
  ASSERT_TRUE(idx.insert(1_MiB / 2, fill(1024, 2), pool).is_ok());
  EXPECT_EQ(idx.extent_count(), 2u);
  auto segs = idx.segments(0, 1_MiB / 2 + 1024);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_NE(segs[0].ext, nullptr);
  EXPECT_EQ(segs[1].ext, nullptr) << "hole between the extents";
  EXPECT_NE(segs[2].ext, nullptr);
}

TEST(ExtentIndex, PoolExhaustionLeavesIndexUnchanged) {
  rt::BufferPool pool(8192, 4096);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(8192, 1), pool).is_ok());  // pool now full
  auto r = idx.insert(100_KiB, fill(4096, 2), pool);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::would_block);
  EXPECT_EQ(idx.extent_count(), 1u);
  EXPECT_EQ(idx.data_bytes(), 8192u);
}

TEST(ExtentIndex, OversizeMergeReportsTooLarge) {
  rt::BufferPool pool(64_KiB, 4096);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(4096, 1), pool).is_ok());
  // Adjoining write whose merged run would exceed the whole pool.
  auto r = idx.insert(4096, fill(60 * 1024 + 4096, 2), pool);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::message_too_large);
  EXPECT_EQ(idx.extent_count(), 1u);
}

TEST(ExtentIndex, LargestDirtySelection) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(4096, 1), pool).is_ok());
  ASSERT_TRUE(idx.insert(1_MiB / 2, fill(16384, 2), pool).is_ok());
  Extent* e = idx.largest_dirty();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->start, 1_MiB / 2);
  idx.mark_clean(*e);
  EXPECT_EQ(idx.dirty_bytes(), 4096u);
  e = idx.largest_dirty();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->start, 0u);
  Extent* c = idx.largest_clean();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start, 1_MiB / 2);
}

TEST(ExtentIndex, EvictReleasesLease) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(4096, 1), pool).is_ok());
  EXPECT_GT(pool.in_use(), 0u);
  idx.evict(0);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(idx.data_bytes(), 0u);
  EXPECT_EQ(idx.dirty_bytes(), 0u);
}

TEST(ExtentIndex, TakeOverlappingRemovesOnlyTouchedExtents) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(4096, 1), pool).is_ok());
  ASSERT_TRUE(idx.insert(100_KiB, fill(4096, 2), pool).is_ok());
  ASSERT_TRUE(idx.insert(200_KiB, fill(4096, 3), pool).is_ok());
  auto taken = idx.take_overlapping(100_KiB, 4096);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].start, 100_KiB);
  EXPECT_EQ(idx.extent_count(), 2u);
}

TEST(ExtentIndex, ClearReturnsEverythingToPool) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(0, fill(4096, 1), pool).is_ok());
  ASSERT_TRUE(idx.insert(100_KiB, fill(4096, 2), pool).is_ok());
  idx.clear();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(idx.max_end(), 0u);
}

TEST(ExtentIndex, MaxEndTracksHighestStagedByte) {
  rt::BufferPool pool(1_MiB);
  ExtentIndex idx;
  ASSERT_TRUE(idx.insert(100_KiB, fill(4096, 1), pool).is_ok());
  EXPECT_EQ(idx.max_end(), 100_KiB + 4096);
}

}  // namespace
}  // namespace iofwd::bb
