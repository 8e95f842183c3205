// Graceful degradation: bounded BML waits that fall back to pass-through
// execution, burst-buffer stall bounds that fall back to write-through, and
// the queue-depth hysteresis that switches async staging to sync staging.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bb/burst_buffer.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
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

// Holds the server's first backend write until release(). With one worker
// parked on that write, a burst admitted behind it only grows the queue:
// nothing drains it mid-burst however the host schedules the threads.
class HeldFirstWrite final : public rt::IoBackend {
 public:
  // Blocks until the first write is parked in the backend.
  void wait_held() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void release() {
    {
      std::scoped_lock lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  Status open(int fd, const std::string& path) override { return mem_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    if (!first_.exchange(true)) {
      std::unique_lock lock(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return mem_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return mem_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return mem_.fsync(fd); }
  Status close(int fd) override { return mem_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return mem_.size(fd); }

 private:
  rt::MemBackend mem_;
  std::atomic<bool> first_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

// A single-worker async-staging server over HeldFirstWrite, driven by one
// client with a 32-deep window.
struct HeldWorker {
  explicit HeldWorker(std::uint64_t low_watermark) {
    rt::ServerConfig cfg;
    cfg.exec = rt::ExecModel::work_queue_async;
    cfg.workers = 1;
    cfg.degraded_high_watermark = 4;
    cfg.degraded_low_watermark = low_watermark;
    auto backend = std::make_unique<HeldFirstWrite>();
    gate = backend.get();
    server = std::make_unique<rt::IonServer>(std::move(backend), cfg);
    auto [s, c] = rt::InProcTransport::make_pair();
    server->serve(std::move(s));
    rt::ClientConfig ccfg;
    ccfg.window = 32;
    client = std::make_unique<rt::Client>(std::move(c), ccfg);
  }
  ~HeldWorker() { gate->release(); }  // never leave the worker parked

  // Submit `n` writes of `data`: the first parks the worker, the rest go
  // back to back behind it. Release the worker once the server has
  // admitted all n (a staged ack or a sync-staged write each), then reap
  // every ack. The worker must be parked before the rest arrive: it pops
  // the queue in batches, and a batch popped mid-burst would empty it.
  void burst(int n, const std::vector<std::byte>& data) {
    const auto enqueued = [&] {
      return counter(server->metrics(), "server.reply.enqueued");
    };
    const std::uint64_t base = enqueued();
    std::vector<rt::Client::Ticket> tickets;
    for (int i = 0; i < n; ++i) {
      tickets.push_back(client->submit_write(1, static_cast<std::uint64_t>(i) * data.size(), data));
      if (i == 0) gate->wait_held();
    }
    while (enqueued() - base + counter(server->metrics(), "server.degraded_sync_writes") <
           static_cast<std::uint64_t>(n)) {
      std::this_thread::sleep_for(1ms);
    }
    gate->release();
    for (auto t : tickets) EXPECT_TRUE(client->wait(t).is_ok());
  }

  HeldFirstWrite* gate = nullptr;
  std::unique_ptr<rt::IonServer> server;
  std::unique_ptr<rt::Client> client;
};

TEST(Degradation, QueueDepthWatermarkForcesSyncStaging) {
  // One worker held on the first backend write while 24 pipelined writes
  // are admitted: the queue depth crosses the high watermark, so later
  // writes must be staged synchronously (acknowledged only on completion)
  // until the queue drains below the low watermark.
  HeldWorker hw(/*low_watermark=*/1);
  rt::Client& client = *hw.client;

  ASSERT_TRUE(client.open(1, "q").is_ok());
  hw.burst(24, pattern(4_KiB, 6));
  ASSERT_TRUE(client.fsync(1).is_ok());

  const obs::Snapshot st = hw.server->metrics();
  EXPECT_GE(counter(st, "server.degraded_enters"), 1u) << "queue depth never crossed the watermark";
  EXPECT_GE(counter(st, "server.degraded_sync_writes"), 1u);
  EXPECT_GT(counter(st, "server.degraded_ns"), 0u);
  EXPECT_TRUE(client.close(1).is_ok());
}

TEST(Degradation, OpenDegradedSpanCountsOnEveryRead) {
  // Low watermark 0: once the pipelined burst tips the server into sync
  // staging it stays there (only an admitted write re-evaluates the depth).
  // server.degraded_ns must still advance with wall time on every read —
  // metrics() banks the open span — and never move backwards.
  // The first write parks the single worker until the whole burst is
  // admitted behind it: the depth climbs past the high watermark once and
  // no admission sees the queue drained.
  HeldWorker hw(/*low_watermark=*/0);
  rt::Client& client = *hw.client;
  ASSERT_TRUE(client.open(1, "q").is_ok());
  hw.burst(12, pattern(4_KiB, 7));
  ASSERT_TRUE(client.fsync(1).is_ok());

  const obs::Snapshot first = hw.server->metrics();
  ASSERT_EQ(counter(first, "server.degraded_enters"), 1u) << "the burst never degraded";
  std::this_thread::sleep_for(20ms);
  const obs::Snapshot second = hw.server->metrics();
  EXPECT_EQ(counter(second, "server.degraded_enters"), 1u) << "left degraded mode early";
  ASSERT_GE(counter(second, "server.degraded_ns"), counter(first, "server.degraded_ns"));
  EXPECT_GE(counter(second, "server.degraded_ns") - counter(first, "server.degraded_ns"),
            std::uint64_t{20'000'000})
      << "the open span did not reach the counter";
  EXPECT_TRUE(client.close(1).is_ok());
}

}  // namespace
}  // namespace iofwd::fault
