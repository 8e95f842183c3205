// End-to-end tests of the real forwarding runtime: IonServer + Client over
// in-process and socket transports, across all three execution models.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::counter;
using testsupport::gauge;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TestCluster cluster(ExecModel exec, ServerConfig cfg = {}) {
  ClusterOptions o;
  o.server = cfg;
  o.server.exec = exec;
  return TestCluster(o);
}

class AllModels : public ::testing::TestWithParam<ExecModel> {};

TEST_P(AllModels, OpenWriteReadCloseRoundTrip) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(1, "file").is_ok());
  const auto data = pattern(1_MiB, 7);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  ASSERT_TRUE(tc.client().fsync(1).is_ok());  // barrier so async lands
  auto r = tc.client().read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST_P(AllModels, OffsetWritesAssembleCorrectly) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(3, "f").is_ok());
  const auto a = pattern(64_KiB, 1);
  const auto b = pattern(64_KiB, 2);
  ASSERT_TRUE(tc.client().write(3, 64_KiB, b).is_ok());
  ASSERT_TRUE(tc.client().write(3, 0, a).is_ok());
  auto r = tc.client().read(3, 0, 128_KiB);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), r.value().begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), r.value().begin() + 64_KiB));
  EXPECT_TRUE(tc.client().close(3).is_ok());
}

TEST_P(AllModels, WriteToUnopenedFdFails) {
  TestCluster tc = cluster(GetParam());
  const auto data = pattern(4096, 3);
  Status st = tc.client().write(9, 0, data);
  if (GetParam() == ExecModel::work_queue_async) {
    // Staging is acknowledged; the failure is deferred to the next op.
    st = tc.client().fsync(9);
  }
  EXPECT_EQ(st.code(), Errc::bad_descriptor);
}

TEST_P(AllModels, ManySequentialOps) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(1, "big").is_ok());
  const auto chunk = pattern(16_KiB, 9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tc.client().write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(tc.client().fsync(1).is_ok());
  auto r = tc.client().read(1, 99 * chunk.size(), chunk.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), chunk);
  EXPECT_TRUE(tc.client().close(1).is_ok());
  const obs::Snapshot s = tc.server().metrics();
  EXPECT_GE(counter(s, "server.ops"), 103u);
  EXPECT_GE(counter(s, "server.bytes_in"), 100 * chunk.size());
}

TEST_P(AllModels, ConcurrentClientsIntegrity) {
  constexpr int kClients = 8;
  ClusterOptions o;
  o.server.exec = GetParam();
  o.clients = kClients;
  TestCluster tc(o);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto& c = tc.client(static_cast<std::size_t>(i));
      const int fd = 10 + i;
      const auto data = pattern(256_KiB, static_cast<std::uint64_t>(i));
      if (!c.open(fd, "client_" + std::to_string(i)).is_ok()) ++failures;
      for (int op = 0; op < 20; ++op) {
        if (!c.write(fd, static_cast<std::uint64_t>(op) * data.size(), data).is_ok()) {
          ++failures;
        }
      }
      if (!c.fsync(fd).is_ok()) ++failures;
      auto r = c.read(fd, 19 * data.size(), data.size());
      if (!r.is_ok() || r.value() != data) ++failures;
      if (!c.close(fd).is_ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
}

TEST_P(AllModels, FstatReportsSize) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(1, "sized").is_ok());
  auto empty = tc.client().fstat_size(1);
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value(), 0u);
  const auto data = pattern(192_KiB, 21);
  ASSERT_TRUE(tc.client().write(1, 64_KiB, data).is_ok());
  // fstat drains in-flight async writes, so the size is exact.
  auto sz = tc.client().fstat_size(1);
  ASSERT_TRUE(sz.is_ok());
  EXPECT_EQ(sz.value(), 256_KiB);
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST_P(AllModels, FstatUnknownFdFails) {
  TestCluster tc = cluster(GetParam());
  EXPECT_EQ(tc.client().fstat_size(77).code(), Errc::bad_descriptor);
}

TEST_P(AllModels, ShutdownOpcodeDisconnects) {
  TestCluster tc = cluster(GetParam());
  EXPECT_TRUE(tc.client().shutdown().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Models, AllModels,
                         ::testing::Values(ExecModel::thread_per_client, ExecModel::work_queue,
                                           ExecModel::work_queue_async),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

// ---------------------------------------------------------------------------
// Async-staging semantics
// ---------------------------------------------------------------------------

TEST(AsyncRt, WriteIsAcknowledgedAsStaged) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 4);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_TRUE(tc.client().last_write_was_staged());
  ASSERT_TRUE(tc.client().close(1).is_ok());
}

TEST(SyncRt, WriteIsNotStaged) {
  TestCluster tc = cluster(ExecModel::work_queue);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(4096, 4);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_FALSE(tc.client().last_write_was_staged());
}

TEST(AsyncRt, DeferredErrorReportedExactlyOnce) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  // Transient single-shot fault: the next backend write fails, then clears.
  tc.backend_plan().add({.op = fault::OpKind::write, .nth = 1, .error = Errc::io_error});
  const auto data = pattern(4096, 5);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  // fsync drains and must report the deferred failure.
  EXPECT_EQ(tc.client().fsync(1).code(), Errc::io_error);
  // Consumed: everything after is clean.
  EXPECT_TRUE(tc.client().fsync(1).is_ok());
  EXPECT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST(AsyncRt, CloseReportsDeferredError) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  tc.backend_plan().fail_always(fault::OpKind::write, Errc::io_error);
  const auto data = pattern(4096, 6);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_EQ(tc.client().close(1).code(), Errc::io_error);
  EXPECT_GE(counter(tc.server().metrics(), "server.deferred_errors"), 1u);
}

TEST(AsyncRt, ReadAfterWriteIsConsistent) {
  // The read barrier: a read observes all previously staged writes.
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(1_MiB, 8);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  auto r = tc.client().read(1, 0, data.size());  // no fsync in between
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST(AsyncRt, BmlBackpressureStillDeliversEverything) {
  ServerConfig cfg;
  cfg.bml_bytes = 256 * 1024;  // tiny pool forces staging to block
  TestCluster tc = cluster(ExecModel::work_queue_async, cfg);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 9);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(tc.client().write(1, static_cast<std::uint64_t>(i) * data.size(), data).is_ok());
  }
  ASSERT_TRUE(tc.client().fsync(1).is_ok());
  auto r = tc.client().read(1, 63 * data.size(), data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(tc.client().close(1).is_ok());
  EXPECT_LE(gauge(tc.server().metrics(), "server.bml_high_watermark"), 256 * 1024);
}

TEST(Rt, OversizeWriteBouncesCleanly) {
  ServerConfig cfg;
  cfg.bml_bytes = 64 * 1024;
  TestCluster tc = cluster(ExecModel::work_queue, cfg);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(1_MiB, 10);  // exceeds the whole pool
  EXPECT_EQ(tc.client().write(1, 0, data).code(), Errc::no_memory);
  // The connection remains usable afterwards.
  const auto small = pattern(4096, 11);
  EXPECT_TRUE(tc.client().write(1, 0, small).is_ok());
}

// Raw socketpair wiring is deliberately hand-built: it pins the one transport
// TestCluster doesn't use.
TEST(Rt, WorksOverSocketpair) {
  auto pair = SocketTransport::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  auto backend = std::make_unique<MemBackend>();
  IonServer server(std::move(backend), {});
  server.serve(std::move(pair.value().first));
  Client client(std::move(pair.value().second));
  ASSERT_TRUE(client.open(1, "sock").is_ok());
  const auto data = pattern(512_KiB, 12);
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(client.close(1).is_ok());
}

TEST(Rt, StatsAccumulate) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 13);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(tc.client().write(1, static_cast<std::uint64_t>(i) * data.size(), data).is_ok());
  }
  ASSERT_TRUE(tc.client().fsync(1).is_ok());
  const obs::Snapshot s = tc.server().metrics();
  EXPECT_EQ(counter(s, "server.bytes_in"), 32 * data.size());
  EXPECT_GE(gauge(s, "server.queue_batches"), 1);
  EXPECT_GE(gauge(s, "server.queue_max_depth"), 1);
}

TEST(Rt, StopIsIdempotentAndJoinsThreads) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  tc.stop();
  tc.stop();
  // Client calls now fail cleanly instead of hanging.
  const auto data = pattern(4096, 14);
  EXPECT_FALSE(tc.client().write(1, 0, data).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
