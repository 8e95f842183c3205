// Seeded cross-stack chaos: N clients hammer a burst-buffered, retry-wrapped
// server while a deterministic FaultPlan injects transport cuts and backend
// faults. Asserts the resilience contract: no hangs (wall-clock bound), no
// leaked BML/pool leases after drain, healthy clients fully served with
// intact data, and acknowledged synchronous bytes readable.
//
// Replay any failure with the seed the run logs: IOFWD_TEST_SEED=0x... .
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bb/burst_buffer.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "fault/retry.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::fault {
namespace {

using testsupport::gauge;
using namespace std::chrono_literals;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TEST(Chaos, SeededFaultStormLeavesServerHealthy) {
  const std::uint64_t seed = testsupport::test_seed("Chaos.SeededFaultStorm", 0xC405);
  const auto t0 = std::chrono::steady_clock::now();

  // Backend chain: bb cache (server-owned) -> retry -> seeded faults -> mem.
  auto backend_plan = std::make_shared<FaultPlan>(seed);
  backend_plan->add({.op = OpKind::write, .probability = 0.05, .error = Errc::io_error});
  backend_plan->add({.op = OpKind::fsync, .probability = 0.02, .error = Errc::timed_out});
  RetryPolicy rp;
  rp.max_attempts = 8;
  rp.base_backoff = std::chrono::microseconds(50);
  rp.max_backoff = std::chrono::microseconds(2'000);

  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 4;
  o.server.bml_bytes = 8_MiB;
  o.server.bb_bytes = 4_MiB;
  o.server.bml_wait_ms = 50;
  o.server.bb_max_stall_ms = 50;
  o.server.degraded_high_watermark = 32;
  o.server.degraded_low_watermark = 8;
  o.backend_plan = backend_plan;
  o.retry = &rp;
  o.clients = 0;  // every client below has bespoke fault wiring
  TestCluster tc(o);

  constexpr int kFaulty = 4;
  constexpr int kHealthy = 2;
  constexpr int kBursts = 12;
  const std::size_t kBurstSize = 16_KiB;

  // Faulty clients: their connections are cut by seeded schedules; with a
  // StreamFactory they reconnect and replay (redials come up clean). They
  // may ultimately give up (bounded attempts) but must never hang or corrupt
  // others.
  for (int id = 0; id < kFaulty; ++id) {
    auto stream_plan = std::make_shared<FaultPlan>(seed + 100 + static_cast<std::uint64_t>(id));
    stream_plan->add({.op = OpKind::stream_write, .probability = 0.03, .error = Errc::shutdown});
    TestCluster::ClientSpec spec;
    spec.cfg.roundtrip_timeout_ms = 10'000;
    spec.cfg.reconnect_attempts = 4;
    spec.cfg.reconnect_backoff_ms = 1;
    spec.stream_plan = std::move(stream_plan);
    spec.reconnectable = true;
    tc.add_client(std::move(spec));
  }
  // Healthy clients: clean connections; every call must succeed and every
  // acknowledged byte must be readable afterwards.
  for (int id = 0; id < kHealthy; ++id) {
    TestCluster::ClientSpec spec;
    spec.cfg.roundtrip_timeout_ms = 30'000;
    spec.reconnectable = true;
    tc.add_client(std::move(spec));
  }

  std::vector<std::thread> threads;
  std::vector<int> healthy_ok(kHealthy, 0);

  for (int id = 0; id < kFaulty; ++id) {
    threads.emplace_back([&, id] {
      auto& client = tc.client(static_cast<std::size_t>(id));
      const int fd = 10 + id;
      if (!client.open(fd, "faulty" + std::to_string(id)).is_ok()) return;
      const auto data = pattern(kBurstSize, seed + static_cast<std::uint64_t>(id));
      for (int i = 0; i < kBursts; ++i) {
        if (!client.write(fd, static_cast<std::uint64_t>(i) * data.size(), data).is_ok()) return;
      }
      (void)client.fsync(fd);
      (void)client.close(fd);
    });
  }

  for (int id = 0; id < kHealthy; ++id) {
    threads.emplace_back([&, id] {
      auto& client = tc.client(static_cast<std::size_t>(kFaulty + id));
      const int fd = 50 + id;
      const std::string path = "healthy" + std::to_string(id);
      ASSERT_TRUE(client.open(fd, path).is_ok());
      const auto data = pattern(kBurstSize, seed + 50 + static_cast<std::uint64_t>(id));
      for (int i = 0; i < kBursts; ++i) {
        ASSERT_TRUE(client.write(fd, static_cast<std::uint64_t>(i) * data.size(), data).is_ok())
            << "healthy client " << id << " write " << i;
      }
      ASSERT_TRUE(client.fsync(fd).is_ok()) << "healthy client " << id;
      // Read-back integrity through the live server (bb read-your-writes).
      for (int i = 0; i < kBursts; ++i) {
        auto r = client.read(fd, static_cast<std::uint64_t>(i) * data.size(), data.size());
        ASSERT_TRUE(r.is_ok()) << "healthy client " << id << " read " << i;
        ASSERT_EQ(r.value(), data) << "healthy client " << id << " burst " << i << " corrupted";
      }
      ASSERT_TRUE(client.close(fd).is_ok());
      healthy_ok[static_cast<std::size_t>(id)] = 1;
    });
  }

  for (auto& t : threads) t.join();

  // No hangs: the whole storm fits comfortably under a minute.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 60s) << "chaos run took suspiciously long";
  for (int id = 0; id < kHealthy; ++id) {
    EXPECT_EQ(healthy_ok[static_cast<std::size_t>(id)], 1)
        << "healthy client " << id << " did not complete";
  }

  // Quiesce, then check the ledgers: no leaked BML leases, no leaked cache
  // leases, and the healthy files fully landed in the terminal backend.
  tc.stop();
  const obs::Snapshot st = tc.server().metrics();
  EXPECT_EQ(gauge(st, "server.bml_in_use"), 0) << "BML pool leaked a lease";
  EXPECT_EQ(gauge(st, "bb.cached_bytes"), 0) << "burst-buffer cache leaked a lease";

  for (int id = 0; id < kHealthy; ++id) {
    const auto all = tc.snapshot("healthy" + std::to_string(id));
    const auto data = pattern(kBurstSize, seed + 50 + static_cast<std::uint64_t>(id));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kBursts) * kBurstSize)
        << "healthy file " << id << " truncated";
    for (int i = 0; i < kBursts; ++i) {
      EXPECT_TRUE(std::equal(data.begin(), data.end(),
                             all.begin() + static_cast<std::ptrdiff_t>(i) *
                                 static_cast<std::ptrdiff_t>(kBurstSize)))
          << "healthy file " << id << " burst " << i << " corrupted after drain";
    }
  }
}

}  // namespace
}  // namespace iofwd::fault
