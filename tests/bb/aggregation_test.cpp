// Write aggregation by the burst buffer. These cases once pinned a
// sequential write-aggregation window in front of the backend; the burst
// buffer replaced it, and they now hold the burst buffer to the same
// contract: sequential appends coalesce into few large backend writes, a
// full cache drains without an fsync, a read sees staged bytes, a write
// above the staging limit goes straight through, close and fsync drain only
// their own descriptor, and the whole path composes with IonServer.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bb/burst_buffer.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::bb {
namespace {

using testsupport::counter;
using testsupport::pattern;

struct Fixture {
  rt::MemBackend* mem = nullptr;
  BurstBufferBackend bbuf;

  explicit Fixture(BurstBufferConfig cfg)
      : bbuf(
            [this] {
              auto m = std::make_unique<rt::MemBackend>();
              mem = m.get();
              return m;
            }(),
            cfg) {}
};

// Watermarks at 100%: nothing drains before an explicit fsync or close.
BurstBufferConfig staging_only(std::uint64_t capacity = 8_MiB) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = capacity;
  cfg.high_watermark = 1.0;
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = capacity;
  return cfg;
}

// 64 sequential 16 KiB appends (1 MiB) stay staged until fsync and then
// reach the backend as ceil(1 MiB / 1 MiB) = 1 write — as few as a 1 MiB
// aggregation window needs.
TEST(Aggregator, CoalescesSequentialWrites) {
  Fixture fx(staging_only());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto chunk = pattern(16_KiB, 1);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  EXPECT_EQ(counter(fx.bbuf.metrics(), "bb.backend_writes"), 0u) << "all staged before fsync";
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_EQ(counter(s, "bb.writes_in"), 64u);
  EXPECT_LE(counter(s, "bb.backend_writes"), 1u) << "one coalesced write";
  const auto stored = fx.mem->snapshot("f");
  ASSERT_EQ(stored.size(), 64 * 16_KiB);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(std::equal(chunk.begin(), chunk.end(),
                           stored.begin() + static_cast<std::ptrdiff_t>(i) * 16_KiB))
        << "chunk " << i;
  }
}

// The cache is the window: crossing its high watermark drains staged data
// to the backend with no fsync from the application.
TEST(Aggregator, FullWindowFlushesAutomatically) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.1;
  cfg.low_watermark = 0.0;
  cfg.flushers = 1;
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto chunk = pattern(4_KiB, 2);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter(fx.bbuf.metrics(), "bb.backend_writes") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(counter(fx.bbuf.metrics(), "bb.backend_writes"), 1u) << "a full cache must drain";
  ASSERT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f").size(), 16 * 4_KiB);
}

// The window flushed before a read so the backend read saw pending writes.
// The burst buffer keeps that contract without the flush: a read merges
// staged bytes over the ones already in the backend, and the backend still
// holds the old bytes afterwards.
TEST(Aggregator, ReadFlushesFirst) {
  Fixture fx(staging_only());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto a = pattern(4_KiB, 4);
  ASSERT_TRUE(fx.bbuf.write(1, 0, a).is_ok());
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  const auto b = pattern(1_KiB, 9);
  ASSERT_TRUE(fx.bbuf.write(1, 1_KiB, b).is_ok());

  std::vector<std::byte> out(4_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 4_KiB);
  auto want = a;
  std::copy(b.begin(), b.end(), want.begin() + static_cast<std::ptrdiff_t>(1_KiB));
  EXPECT_EQ(out, want);
  EXPECT_EQ(fx.mem->snapshot("f"), a) << "the read must not write the staged bytes back";
  ASSERT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f"), want);
}

TEST(Aggregator, WriteLargerThanWindow) {
  BurstBufferConfig cfg = staging_only(64_KiB);
  cfg.write_through_bytes = 4_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto big = pattern(3 * 4_KiB + 100, 5);
  ASSERT_TRUE(fx.bbuf.write(1, 0, big).is_ok());
  EXPECT_EQ(counter(fx.bbuf.metrics(), "bb.write_through_bytes"), big.size())
      << "a write above the staging limit bypasses the cache";
  ASSERT_TRUE(fx.bbuf.close(1).is_ok());
  ASSERT_TRUE(fx.bbuf.open(2, "f").is_ok());
  std::vector<std::byte> out(big.size());
  auto r = fx.bbuf.read(2, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, big);
}

TEST(Aggregator, CloseFlushes) {
  Fixture fx(staging_only());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto a = pattern(1000, 6);
  ASSERT_TRUE(fx.bbuf.write(1, 0, a).is_ok());
  EXPECT_TRUE(fx.mem->snapshot("f").empty()) << "staged, not yet written back";
  ASSERT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f"), a);
}

TEST(Aggregator, PerFdWindowsAreIndependent) {
  Fixture fx(staging_only());
  ASSERT_TRUE(fx.bbuf.open(1, "a").is_ok());
  ASSERT_TRUE(fx.bbuf.open(2, "b").is_ok());
  const auto d = pattern(512, 7);
  ASSERT_TRUE(fx.bbuf.write(1, 0, d).is_ok());
  ASSERT_TRUE(fx.bbuf.write(2, 0, d).is_ok());
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("a").size(), 512u);
  EXPECT_TRUE(fx.mem->snapshot("b").empty()) << "fd 2 still staged";
  ASSERT_TRUE(fx.bbuf.close(2).is_ok());
  EXPECT_EQ(fx.mem->snapshot("b").size(), 512u);
}

// Small client writes coalesce into one large backend write — the
// write-back-caching optimization of the related work, running under the
// worker-pool execution model instead of a single aggregation thread.
TEST(Aggregator, ComposesWithServer) {
  auto mem_owned = std::make_unique<rt::MemBackend>();
  auto* mem = mem_owned.get();
  rt::ServerConfig cfg;
  cfg.workers = 1;
  cfg.bb_bytes = 8_MiB;
  cfg.bb_high_watermark = 1.0;  // only the fsync drains
  cfg.bb_low_watermark = 1.0;
  rt::IonServer server(std::move(mem_owned), cfg);
  auto [se, ce] = rt::InProcTransport::make_pair();
  server.serve(std::move(se));
  rt::Client client(std::move(ce));

  ASSERT_TRUE(client.open(1, "ckpt").is_ok());
  const auto chunk = pattern(16_KiB, 8);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(client.fsync(1).is_ok());
  const obs::Snapshot s = server.metrics();
  EXPECT_EQ(counter(s, "bb.writes_in"), 64u);
  EXPECT_LE(counter(s, "bb.backend_writes"), 1u) << "64 small writes became one large one";
  EXPECT_EQ(mem->snapshot("ckpt").size(), 64 * chunk.size());
  ASSERT_TRUE(client.close(1).is_ok());
}

}  // namespace
}  // namespace iofwd::bb
