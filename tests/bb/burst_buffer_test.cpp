// Burst-buffer cache semantics: read-your-writes without flush barriers,
// out-of-order coalescing, capacity/watermark behaviour, per-descriptor
// drains, deferred flush errors, and composition with IonServer.
#include "bb/burst_buffer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "analysis/report.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"

namespace iofwd::bb {
namespace {

using rt::MemBackend;
using testsupport::counter;
using testsupport::gauge;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

// Forwards to an externally owned backend, so tests can inspect it after the
// burst buffer (which owns its inner backend) has been destroyed.
class RefBackend final : public rt::IoBackend {
 public:
  explicit RefBackend(rt::IoBackend& target) : t_(target) {}
  Status open(int fd, const std::string& path) override { return t_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    return t_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return t_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return t_.fsync(fd); }
  Status close(int fd) override { return t_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return t_.size(fd); }

 private:
  rt::IoBackend& t_;
};

struct Fixture {
  MemBackend* mem = nullptr;
  // Faults are injected through the shared plan (fault::FaultyBackend sits
  // between the burst buffer and the MemBackend).
  std::shared_ptr<fault::FaultPlan> plan = std::make_shared<fault::FaultPlan>();
  BurstBufferBackend bbuf;

  explicit Fixture(BurstBufferConfig cfg)
      : bbuf(
            [this] {
              auto m = std::make_unique<MemBackend>();
              mem = m.get();
              return std::make_unique<fault::FaultyBackend>(std::move(m), plan);
            }(),
            cfg) {}
};

BurstBufferConfig quiet_config(std::uint64_t capacity = 16_MiB) {
  // Watermarks at 100%: background flushing never kicks in, so tests can
  // assert exactly when data reaches the inner backend.
  BurstBufferConfig cfg;
  cfg.capacity_bytes = capacity;
  cfg.high_watermark = 1.0;
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = capacity;  // never bypass
  return cfg;
}

TEST(BurstBuffer, ReadYourWritesWithoutFlush) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 1);
  ASSERT_TRUE(fx.bbuf.write(1, 4096, data).is_ok());

  std::vector<std::byte> out(64_KiB);
  auto r = fx.bbuf.read(1, 4096, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 64_KiB);
  EXPECT_EQ(out, data);
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_EQ(counter(s, "bb.backend_writes"), 0u) << "read served from cache, no flush barrier";
  EXPECT_DOUBLE_EQ(analysis::bb_hit_rate(s), 1.0);
  EXPECT_TRUE(fx.mem->snapshot("f").empty());
}

TEST(BurstBuffer, OutOfOrderBurstCoalescesToOneBackendWrite) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // 16 chunks written in reverse: a sequential aggregation window would issue one
  // backend write per chunk; the extent index merges them into one run.
  const auto chunk = pattern(16_KiB, 2);
  for (int i = 15; i >= 0; --i) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  EXPECT_EQ(counter(fx.bbuf.metrics(), "bb.backend_writes"), 0u);
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_EQ(counter(s, "bb.backend_writes"), 1u) << "one coalesced flush for the whole burst";
  EXPECT_GT(analysis::bb_coalesce_ratio(s), 10.0);
  EXPECT_EQ(fx.mem->snapshot("f").size(), 16 * 16_KiB);
}

TEST(BurstBuffer, InterleavedStridedWritesCoalesce) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Two interleaved strided streams (even chunks then odd chunks): never
  // sequential, but the union is one contiguous run.
  const auto chunk = pattern(8_KiB, 3);
  for (int i = 0; i < 16; i += 2) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  for (int i = 1; i < 16; i += 2) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(counter(fx.bbuf.metrics(), "bb.backend_writes"), 1u);
  EXPECT_EQ(fx.mem->snapshot("f").size(), 16 * 8_KiB);
}

TEST(BurstBuffer, CachedBytesNeverExceedCapacity) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.75;
  cfg.low_watermark = 0.5;
  cfg.flushers = 1;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Ingest 4 MiB through a 256 KiB cache, shuffled within 64 KiB groups so
  // runs are non-sequential; writers must stall-and-drain, never overrun.
  const auto chunk = pattern(16_KiB, 4);
  std::vector<int> order;
  for (int g = 0; g < 64; g += 4) {
    order.insert(order.end(), {g + 3, g + 1, g + 2, g});
  }
  for (int i : order) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_LE(gauge(s, "bb.cached_high_watermark"), static_cast<std::int64_t>(cfg.capacity_bytes))
      << "staged bytes must never exceed bb_bytes";
  EXPECT_LT(counter(s, "bb.backend_writes"), counter(s, "bb.writes_in"))
      << "coalescing still wins under pressure";
  // Every byte landed despite evictions and stalls.
  const auto stored = fx.mem->snapshot("f");
  ASSERT_EQ(stored.size(), 64 * 16_KiB);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(std::equal(chunk.begin(), chunk.end(),
                           stored.begin() + static_cast<std::ptrdiff_t>(i) * 16_KiB))
        << "chunk " << i;
  }
}

TEST(BurstBuffer, WatermarkTriggersBackgroundFlush) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 1_MiB;
  cfg.high_watermark = 0.5;
  cfg.low_watermark = 0.25;
  cfg.flushers = 2;
  cfg.write_through_bytes = 1_MiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Disjoint extents totalling 768 KiB: crosses the 512 KiB high watermark.
  const auto chunk = pattern(64_KiB, 5);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * 128_KiB, chunk).is_ok());
  }
  // No fsync: the background flushers must drain on their own.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto flushed = [&] { return counter(fx.bbuf.metrics(), "bb.flushed_bytes"); };
  const auto cached = [&] { return gauge(fx.bbuf.metrics(), "bb.cached_bytes"); };
  const auto quarter = static_cast<std::int64_t>(cfg.capacity_bytes / 4);
  while (flushed() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(flushed(), 0u) << "flushers never woke";
  while (cached() > quarter && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(cached(), quarter) << "flushers should drain below the low watermark";
}

TEST(BurstBuffer, FsyncDrainsOnlyThatDescriptor) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "a").is_ok());
  ASSERT_TRUE(fx.bbuf.open(2, "b").is_ok());
  const auto d = pattern(4_KiB, 6);
  ASSERT_TRUE(fx.bbuf.write(1, 0, d).is_ok());
  ASSERT_TRUE(fx.bbuf.write(2, 0, d).is_ok());
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("a").size(), 4_KiB);
  EXPECT_TRUE(fx.mem->snapshot("b").empty()) << "fd 2 still staged";
  ASSERT_TRUE(fx.bbuf.close(2).is_ok());
  EXPECT_EQ(fx.mem->snapshot("b").size(), 4_KiB);
}

// Records every write that reaches it; a write at `fail_at` fails with EIO.
class RecordingBackend final : public rt::IoBackend {
 public:
  Status open(int fd, const std::string& path) override { return mem_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    writes.emplace_back(offset, data.size());
    if (offset == fail_at) return Status(Errc::io_error, "injected");
    return mem_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return mem_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return mem_.fsync(fd); }
  Status close(int fd) override { return mem_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return mem_.size(fd); }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> writes;  // (offset, len)
  std::uint64_t fail_at = ~0ull;

 private:
  MemBackend mem_;
};

TEST(BurstBuffer, DrainWritesEachDirtyExtentOnceInAscendingOrder) {
  auto owned = std::make_unique<RecordingBackend>();
  RecordingBackend& rec = *owned;
  BurstBufferBackend bbuf(std::move(owned), quiet_config());
  ASSERT_TRUE(bbuf.open(1, "f").is_ok());
  // 16 disjoint extents of 1-4 KiB (8 KiB stride, so none merge), staged in
  // a scrambled order; the one at 40 KiB fails its flush. Sizes differ so a
  // largest-first drain would show up as a different order.
  constexpr std::uint64_t kStride = 8_KiB;
  const auto len_of = [](std::uint64_t slot) { return (1 + (slot * 5) % 4) * 1_KiB; };
  rec.fail_at = 5 * kStride;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::uint64_t slot = (i * 7) % 16;
    ASSERT_TRUE(bbuf.write(1, slot * kStride, pattern(len_of(slot), slot)).is_ok());
  }
  EXPECT_EQ(bbuf.fsync(1).code(), Errc::io_error) << "the failed flush surfaces on the drain";
  ASSERT_EQ(rec.writes.size(), 16u) << "every dirty extent written exactly once";
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rec.writes[i].first, i * kStride) << "ascending offset order";
    EXPECT_EQ(rec.writes[i].second, len_of(i));
  }

  // Flushed extents stay cached clean: a second drain writes only what was
  // dirtied since, still in ascending order.
  rec.writes.clear();
  ASSERT_TRUE(bbuf.write(1, 9 * kStride, pattern(4_KiB, 99)).is_ok());
  ASSERT_TRUE(bbuf.write(1, 3 * kStride, pattern(4_KiB, 98)).is_ok());
  ASSERT_TRUE(bbuf.fsync(1).is_ok());
  ASSERT_EQ(rec.writes.size(), 2u);
  EXPECT_EQ(rec.writes[0].first, 3 * kStride);
  EXPECT_EQ(rec.writes[1].first, 9 * kStride);
  ASSERT_TRUE(bbuf.close(1).is_ok());
}

TEST(BurstBuffer, ReadMixesCachedExtentsAndBackendHoles) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Backend already holds [0, 12 KiB) of 'old'; stage new data over the
  // middle third only.
  const auto old_data = pattern(12_KiB, 7);
  ASSERT_TRUE(fx.mem->write(1, 0, old_data).is_ok());
  const auto fresh = pattern(4_KiB, 8);
  ASSERT_TRUE(fx.bbuf.write(1, 4_KiB, fresh).is_ok());

  std::vector<std::byte> out(12_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 12_KiB);
  EXPECT_TRUE(std::equal(old_data.begin(), old_data.begin() + 4_KiB, out.begin()));
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), out.begin() + 4_KiB));
  EXPECT_TRUE(std::equal(old_data.begin() + 8_KiB, old_data.end(), out.begin() + 8_KiB));
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_EQ(counter(s, "bb.read_hit_bytes"), 4_KiB);
  EXPECT_EQ(counter(s, "bb.read_bytes"), 12_KiB);
}

TEST(BurstBuffer, SizeSeesStagedBytes) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 100_KiB, pattern(4_KiB, 9)).is_ok());
  auto s = fx.bbuf.size(1);
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value(), 100_KiB + 4_KiB) << "fstat must reflect unflushed extents";
}

TEST(BurstBuffer, FlushErrorIsDeferredSurfacesOnceAndDoesNotLeak) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(8_KiB, 10)).is_ok());
  fx.plan->fail_always(fault::OpKind::write, Errc::io_error);
  // The drain inside fsync fails; the error surfaces on the fsync itself.
  Status st = fx.bbuf.fsync(1);
  EXPECT_EQ(st.code(), Errc::io_error);
  // Exactly once: the failed extent was dropped and the error consumed.
  fx.plan->clear();
  EXPECT_TRUE(fx.bbuf.fsync(1).is_ok());
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_EQ(gauge(s, "bb.cached_bytes"), 0) << "failed extent leaked its lease";
  EXPECT_EQ(counter(s, "bb.deferred_errors"), 1u);
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
}

TEST(BurstBuffer, BackgroundFlushErrorBouncesNextOp) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.25;
  cfg.low_watermark = 0.0;
  cfg.flushers = 1;
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  fx.plan->fail_always(fault::OpKind::write, Errc::io_error);
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(128_KiB, 11)).is_ok());  // over the watermark
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto deferred = [&] { return counter(fx.bbuf.metrics(), "bb.deferred_errors"); };
  while (deferred() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(deferred(), 0u) << "background flush never failed";
  fx.plan->clear();
  // Next op on the descriptor bounces with the recorded error, unexecuted...
  auto r = fx.bbuf.write(1, 1_MiB, pattern(4_KiB, 12));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::io_error);
  // ...and exactly once.
  EXPECT_TRUE(fx.bbuf.write(1, 1_MiB, pattern(4_KiB, 12)).is_ok());
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(gauge(fx.bbuf.metrics(), "bb.cached_bytes"), 0);
}

TEST(BurstBuffer, DestructionDrainsEverything) {
  MemBackend mem;
  const auto data = pattern(32_KiB, 13);
  {
    BurstBufferBackend bbuf(std::make_unique<RefBackend>(mem), quiet_config());
    ASSERT_TRUE(bbuf.open(1, "f").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, data).is_ok());
    EXPECT_TRUE(mem.snapshot("f").empty());
  }  // shutdown drains all
  EXPECT_EQ(mem.snapshot("f"), data);
}

TEST(BurstBuffer, HugeWriteBypassesCacheAndSupersedesExtents) {
  BurstBufferConfig cfg = quiet_config(1_MiB);
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(16_KiB, 14)).is_ok());  // cached, will be superseded
  const auto big = pattern(512_KiB, 15);
  ASSERT_TRUE(fx.bbuf.write(1, 0, big).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f").size(), 512_KiB);
  std::vector<std::byte> out(512_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, big) << "stale cached extent must not shadow the write-through";
}

TEST(BurstBuffer, ReadPinnedServesCoveredRangeWithoutCopy) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto data = pattern(8_KiB, 20);
  ASSERT_TRUE(fx.bbuf.write(1, 0, data).is_ok());

  // A sub-range of one extent: the view must alias the staged bytes.
  auto pin = fx.bbuf.read_pinned(1, 1_KiB, 4_KiB);
  ASSERT_TRUE(pin.has_value());
  ASSERT_NE(pin->lease, nullptr);
  ASSERT_EQ(pin->bytes.size(), 4_KiB);
  EXPECT_TRUE(std::equal(pin->bytes.begin(), pin->bytes.end(), data.begin() + 1_KiB));
  const obs::Snapshot s = fx.bbuf.metrics();
  EXPECT_EQ(counter(s, "bb.pinned_reads"), 1u);
  EXPECT_EQ(counter(s, "bb.read_hit_bytes"), 4_KiB) << "a pinned read counts as a full cache hit";
  EXPECT_EQ(counter(s, "bb.backend_writes"), 0u);
}

TEST(BurstBuffer, ReadPinnedViewSurvivesOverwriteOfTheExtent) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto before = pattern(8_KiB, 21);
  ASSERT_TRUE(fx.bbuf.write(1, 0, before).is_ok());
  auto pin = fx.bbuf.read_pinned(1, 0, 8_KiB);
  ASSERT_TRUE(pin.has_value());

  // Overwrite while the pin is live. The in-place fast path requires a
  // unique lease, so the cache must route around the pinned buffer; the
  // outstanding view keeps the pre-overwrite bytes (this is what lets a
  // parked reply writev safely while the descriptor takes new writes).
  const auto after = pattern(8_KiB, 22);
  ASSERT_TRUE(fx.bbuf.write(1, 0, after).is_ok());
  EXPECT_TRUE(std::equal(pin->bytes.begin(), pin->bytes.end(), before.begin()))
      << "a live pin must never observe later writes";

  std::vector<std::byte> out(8_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, after) << "new readers see the overwrite";
  pin.reset();  // release the lease before the drain
  ASSERT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f"), after);
}

TEST(BurstBuffer, ReadPinnedMissesOnHolesPartialCoverageAndUnknownFd) {
  Fixture fx(quiet_config());
  EXPECT_FALSE(fx.bbuf.read_pinned(7, 0, 4_KiB).has_value()) << "unknown descriptor";

  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Backend-resident bytes are not pinnable: only staged extents are.
  ASSERT_TRUE(fx.mem->write(1, 0, pattern(4_KiB, 23)).is_ok());
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 0, 4_KiB).has_value()) << "backend-only range";

  ASSERT_TRUE(fx.bbuf.write(1, 4_KiB, pattern(8_KiB, 24)).is_ok());  // extent [4 KiB, 12 KiB)
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 16_KiB, 4_KiB).has_value()) << "hole";
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 8_KiB, 8_KiB).has_value()) << "partial coverage";
  EXPECT_TRUE(fx.bbuf.read_pinned(1, 4_KiB, 8_KiB).has_value()) << "exact coverage still hits";
  EXPECT_EQ(counter(fx.bbuf.metrics(), "bb.pinned_reads"), 1u)
      << "misses must not count as pinned reads";
}

TEST(BurstBuffer, ReadPinnedDoesNotConsumeDeferredErrors) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.25;
  cfg.low_watermark = 0.2;  // stop draining before the small extent goes
  cfg.flushers = 1;
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // A small extent parked high in the file: it survives the failed flush
  // (largest-dirty goes first, and the low watermark halts the drain).
  const auto keep = pattern(16_KiB, 25);
  ASSERT_TRUE(fx.bbuf.write(1, 1_MiB, keep).is_ok());
  fx.plan->fail_always(fault::OpKind::write, Errc::io_error);
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(128_KiB, 26)).is_ok());  // over the watermark
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto deferred = [&] { return counter(fx.bbuf.metrics(), "bb.deferred_errors"); };
  while (deferred() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(deferred(), 0u) << "background flush never failed";
  fx.plan->clear();

  // The fast path must peek — not consume — the pending error: it misses, and
  // the error still bounces the next op exactly once.
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 1_MiB, 16_KiB).has_value())
      << "a pending deferred error must force the read() fallback";
  auto r = fx.bbuf.write(1, 2_MiB, pattern(4_KiB, 27));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::io_error) << "read_pinned swallowed the deferred error";

  // Error consumed: the surviving extent is pinnable again.
  auto pin = fx.bbuf.read_pinned(1, 1_MiB, 16_KiB);
  ASSERT_TRUE(pin.has_value());
  EXPECT_TRUE(std::equal(pin->bytes.begin(), pin->bytes.end(), keep.begin()));
  pin.reset();
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
}

TEST(BurstBuffer, ComposesWithServerEndToEnd) {
  auto mem_owned = std::make_unique<MemBackend>();
  auto* mem = mem_owned.get();
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.bb_bytes = 8_MiB;
  cfg.bb_high_watermark = 1.0;  // only explicit drains flush
  cfg.bb_low_watermark = 1.0;
  rt::IonServer server(std::move(mem_owned), cfg);
  ASSERT_NE(server.burst_buffer(), nullptr);

  auto [se, ce] = rt::InProcTransport::make_pair();
  server.serve(std::move(se));
  rt::Client client(std::move(ce));
  ASSERT_TRUE(client.open(1, "ckpt").is_ok());

  // Reverse-order checkpoint burst from the client.
  const auto chunk = pattern(32_KiB, 16);
  for (int i = 15; i >= 0; --i) {
    ASSERT_TRUE(client.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  // Read-after-write is served from the cache: nothing has been flushed.
  auto rd = client.read(1, 5 * chunk.size(), chunk.size());
  ASSERT_TRUE(rd.is_ok());
  EXPECT_EQ(rd.value(), chunk);
  EXPECT_TRUE(mem->snapshot("ckpt").empty()) << "read must not force a full drain";

  ASSERT_TRUE(client.fsync(1).is_ok());
  EXPECT_EQ(mem->snapshot("ckpt").size(), 16 * chunk.size());
  const obs::Snapshot s = server.metrics();
  EXPECT_GT(analysis::bb_coalesce_ratio(s), 4.0);
  EXPECT_GT(counter(s, "bb.flushed_bytes"), 0u);
  EXPECT_GT(analysis::bb_hit_rate(s), 0.0);
  ASSERT_TRUE(client.close(1).is_ok());
  server.stop();
  EXPECT_EQ(gauge(server.burst_buffer()->metrics(), "bb.cached_bytes"), 0);
}

TEST(BurstBuffer, NonContiguousWritesLandAtTheirOffsets) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto a = pattern(4_KiB, 31);
  ASSERT_TRUE(fx.bbuf.write(1, 0, a).is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 64_KiB, a).is_ok());  // leaves a hole
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(counter(fx.bbuf.metrics(), "bb.backend_writes"), 2u) << "one write per extent";
  const auto stored = fx.mem->snapshot("f");
  ASSERT_EQ(stored.size(), 64_KiB + 4_KiB);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), stored.begin()));
  EXPECT_TRUE(std::equal(a.begin(), a.end(), stored.begin() + 64_KiB));
}

}  // namespace
}  // namespace iofwd::bb
