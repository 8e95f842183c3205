// Graceful degradation: bounded BML waits that fall back to pass-through
// execution, burst-buffer stall bounds that fall back to write-through, and
// the queue-depth hysteresis that switches async staging to sync staging.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "bb/burst_buffer.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/async_client.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::fault {
namespace {

using testsupport::counter;
using namespace std::chrono_literals;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TEST(Degradation, BmlExhaustionFallsBackToPassThrough) {
  // The pool holds exactly one 64 KiB buffer. The first write leases it and
  // then sits in a 400ms-slow backend write; the second write cannot lease
  // within bml_wait_ms and must execute inline, BML-less, instead of
  // blocking until the first completes.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.bml_bytes = 64_KiB;
  o.server.bml_wait_ms = 20;
  TestCluster tc(o);
  auto& client = tc.client();

  ASSERT_TRUE(client.open(1, "f").is_ok());
  tc.backend_plan().add({.op = OpKind::write, .nth = 1, .error = Errc::ok, .latency = 400'000us});
  const auto a = pattern(64_KiB, 1);
  const auto b = pattern(64_KiB, 2);
  ASSERT_TRUE(client.write(1, 0, a).is_ok());  // staged; flush is slow
  ASSERT_TRUE(client.write(1, a.size(), b).is_ok()) << "degraded write must still succeed";

  ASSERT_TRUE(client.fsync(1).is_ok());
  const obs::Snapshot st = tc.server().metrics();
  EXPECT_GE(counter(st, "server.bml_timeouts"), 1u);
  EXPECT_GE(counter(st, "server.degraded_passthrough_ops"), 1u);

  // Data integrity across both paths.
  const auto all = tc.snapshot("f");
  ASSERT_EQ(all.size(), a.size() + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), all.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), all.begin() + static_cast<std::ptrdiff_t>(a.size())));
  EXPECT_TRUE(client.close(1).is_ok());
}

TEST(Degradation, OversizeWriteStillBouncesNoMemory) {
  // The degraded path must not swallow the documented oversize bounce.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.bml_bytes = 64_KiB;
  o.server.bml_wait_ms = 10;
  TestCluster tc(o);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  EXPECT_EQ(tc.client().write(1, 0, pattern(1_MiB, 3)).code(), Errc::no_memory);
}

TEST(Degradation, BurstBufferStallBoundWritesThrough) {
  // Inner writes are slowed to 100ms, so the flushers cannot free capacity
  // within the 10ms stall bound; a writer facing a full cache must fall back
  // to a synchronous write-through instead of stalling indefinitely.
  // Hand-built: this exercises the raw BurstBufferBackend, no server at all.
  auto plan = std::make_shared<FaultPlan>();
  plan->add({.op = OpKind::write,
             .probability = 1.0,
             .transient = false,
             .error = Errc::ok,
             .latency = 100'000us});
  bb::BurstBufferConfig cfg;
  cfg.capacity_bytes = 64_KiB;
  cfg.high_watermark = 1.0;  // only stall pressure drives flushing
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = 1_MiB;  // never bypass by size
  cfg.max_stall_ms = 10;
  cfg.flushers = 1;

  auto faulty = std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan);
  auto* mem = static_cast<rt::MemBackend*>(&faulty->inner());
  bb::BurstBufferBackend bbuf(std::move(faulty), cfg);

  ASSERT_TRUE(bbuf.open(1, "f").is_ok());
  const auto a = pattern(48_KiB, 4);
  const auto b = pattern(48_KiB, 5);
  // Disjoint, non-adjacent runs: the second cannot merge with the first, so
  // it needs its own lease from a pool the first already exhausted.
  const std::uint64_t off_b = 1_MiB;
  ASSERT_TRUE(bbuf.write(1, 0, a).is_ok());  // fits the cache
  // No lease available: stalls, gives up after max_stall_ms, writes through.
  ASSERT_TRUE(bbuf.write(1, off_b, b).is_ok());
  EXPECT_GE(counter(bbuf.metrics(), "bb.degraded_writes"), 1u);

  ASSERT_TRUE(bbuf.fsync(1).is_ok());
  const auto all = mem->snapshot("f");
  ASSERT_EQ(all.size(), off_b + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), all.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), all.begin() + static_cast<std::ptrdiff_t>(off_b)));
  EXPECT_TRUE(bbuf.close(1).is_ok());
}

TEST(Degradation, QueueDepthWatermarkForcesSyncStaging) {
  // One worker, 30ms per backend write, 24 pipelined writes: the queue depth
  // crosses the high watermark, so later writes must be staged synchronously
  // (acknowledged only on completion) until the queue drains below the low
  // watermark.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 1;
  o.server.degraded_high_watermark = 4;
  o.server.degraded_low_watermark = 1;
  o.clients = 0;  // the pipelined AsyncClient below is the only client
  TestCluster tc(o);
  tc.backend_plan().add({.op = OpKind::write,
                         .probability = 1.0,
                         .transient = false,
                         .error = Errc::ok,
                         .latency = 30'000us});

  auto stream = tc.factory()();
  ASSERT_TRUE(stream.is_ok());
  rt::AsyncClient client(std::move(stream).value(), /*window=*/32);

  ASSERT_TRUE(client.open(1, "q").get().is_ok());
  const auto data = pattern(4_KiB, 6);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(client.write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());
  ASSERT_TRUE(client.fsync(1).get().is_ok());

  const obs::Snapshot st = tc.server().metrics();
  EXPECT_GE(counter(st, "server.degraded_enters"), 1u) << "queue depth never crossed the watermark";
  EXPECT_GE(counter(st, "server.degraded_sync_writes"), 1u);
  EXPECT_GT(counter(st, "server.degraded_ns"), 0u);
  EXPECT_TRUE(client.close_fd(1).get().is_ok());
}

TEST(Degradation, OpenDegradedSpanCountsOnEveryRead) {
  // Low watermark 0: once the pipelined burst tips the server into sync
  // staging it stays there (only an admitted write re-evaluates the depth).
  // server.degraded_ns must still advance with wall time on every read —
  // metrics() banks the open span — and never move backwards.
  // The first write holds the single worker for 300ms, so the whole burst is
  // admitted behind it: the depth climbs past the high watermark once and no
  // admission sees the queue drained (workers pop in batches, so a
  // per-write latency would let the depth fall to 0 mid-burst and leave
  // degraded mode).
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 1;
  o.server.degraded_high_watermark = 4;
  o.server.degraded_low_watermark = 0;
  o.clients = 0;
  TestCluster tc(o);
  tc.backend_plan().add({.op = OpKind::write, .nth = 1, .error = Errc::ok, .latency = 300'000us});

  auto stream = tc.factory()();
  ASSERT_TRUE(stream.is_ok());
  rt::AsyncClient client(std::move(stream).value(), /*window=*/32);
  ASSERT_TRUE(client.open(1, "q").get().is_ok());
  const auto data = pattern(4_KiB, 7);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(client.write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());
  ASSERT_TRUE(client.fsync(1).get().is_ok());

  const obs::Snapshot first = tc.server().metrics();
  ASSERT_EQ(counter(first, "server.degraded_enters"), 1u) << "the burst never degraded";
  std::this_thread::sleep_for(20ms);
  const obs::Snapshot second = tc.server().metrics();
  EXPECT_EQ(counter(second, "server.degraded_enters"), 1u) << "left degraded mode early";
  ASSERT_GE(counter(second, "server.degraded_ns"), counter(first, "server.degraded_ns"));
  EXPECT_GE(counter(second, "server.degraded_ns") - counter(first, "server.degraded_ns"),
            std::uint64_t{20'000'000})
      << "the open span did not reach the counter";
  EXPECT_TRUE(client.close_fd(1).get().is_ok());
}

}  // namespace
}  // namespace iofwd::fault
