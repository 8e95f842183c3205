// Per-tenant QoS admission control (DESIGN.md §17): token-bucket governor
// unit tests, the end-to-end demotion path (an over-budget async write is
// staged synchronously — acked late, never lost), cross-shard tenant
// tagging through RoutingClient, and the FaultPlan hook that lets chaos
// tests force admission verdicts deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/units.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "rt/qos.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::counter;
using namespace std::chrono_literals;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TEST(QosGovernor, BurstAdmitsThenThrottlesThenRefills) {
  obs::MetricRegistry reg;
  QosConfig cfg;
  cfg.bytes_per_sec = 1_MiB;
  cfg.burst_bytes = 64_KiB;
  QosGovernor gov(cfg, reg);

  // The bucket starts full: one burst-sized op sails through.
  EXPECT_TRUE(gov.admit(7, 64_KiB));
  // Drained; the microseconds since the last call earn only a few bytes.
  EXPECT_FALSE(gov.admit(7, 64_KiB));
  EXPECT_EQ(gov.throttled_ops(), 1u);
  EXPECT_EQ(reg.counter("server.qos.7.throttled_ops").value(), 1u);
  EXPECT_EQ(reg.counter("server.qos.admitted_bytes").value(), 64_KiB);

  // 50ms at 1 MiB/s earns >= 51 KiB (sleep_for never wakes early), so a
  // 32 KiB ask must clear after the nap.
  std::this_thread::sleep_for(50ms);
  EXPECT_TRUE(gov.admit(7, 32_KiB));
  EXPECT_EQ(reg.counter("server.qos.7.admitted_bytes").value(), 64_KiB + 32_KiB);
}

TEST(QosGovernor, OpsBucketThrottlesIndependentlyOfBytes) {
  obs::MetricRegistry reg;
  QosConfig cfg;
  cfg.ops_per_sec = 10;  // bytes unlimited
  cfg.burst_ops = 2;
  QosGovernor gov(cfg, reg);

  EXPECT_TRUE(gov.admit(3, 1));
  EXPECT_TRUE(gov.admit(3, 1));
  EXPECT_FALSE(gov.admit(3, 1)) << "third op must wait for an op token";
  // 250ms at 10 ops/s earns >= 2 tokens.
  std::this_thread::sleep_for(250ms);
  EXPECT_TRUE(gov.admit(3, 1));
}

TEST(QosGovernor, TenantsHaveIndependentBuckets) {
  obs::MetricRegistry reg;
  QosConfig cfg;
  cfg.bytes_per_sec = 1_MiB;
  cfg.burst_bytes = 64_KiB;
  QosGovernor gov(cfg, reg);

  ASSERT_TRUE(gov.admit(1, 64_KiB));
  ASSERT_FALSE(gov.admit(1, 64_KiB)) << "tenant 1 blew its own budget";
  // Tenant 2's bucket is untouched by tenant 1's flood.
  EXPECT_TRUE(gov.admit(2, 64_KiB));

  EXPECT_EQ(reg.counter("server.qos.1.throttled_ops").value(), 1u);
  EXPECT_EQ(reg.counter("server.qos.1.admitted_bytes").value(), 64_KiB);
  EXPECT_EQ(reg.counter("server.qos.2.throttled_ops").value(), 0u);
  EXPECT_EQ(reg.counter("server.qos.2.admitted_bytes").value(), 64_KiB);
}

TEST(QosGovernor, ZeroRatesMeanUnlimited) {
  obs::MetricRegistry reg;
  QosGovernor gov(QosConfig{}, reg);  // both rates 0: disabled
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(gov.admit(9, 1_GiB));
  EXPECT_EQ(gov.throttled_ops(), 0u);
}

TEST(Qos, OverBudgetAsyncWritesDemoteToSyncStagingWithDataIntact) {
  // 1 byte/s with a 1-byte burst: every 4 KiB write is over budget, so every
  // async-staged write demotes to sync staging. The client still sees OK on
  // each (acked at completion instead of at enqueue) and the file is intact
  // — QoS slows the hot tenant, it never drops its bytes.
  ClusterOptions o;
  o.server.exec = ExecModel::work_queue_async;
  o.server.qos.bytes_per_sec = 1;
  TestCluster tc(o);
  auto& client = tc.client();

  ASSERT_TRUE(client.open(1, "f").is_ok());
  constexpr std::size_t kOps = 8;
  std::vector<std::byte> golden;
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto chunk = pattern(4_KiB, i + 1);
    ASSERT_TRUE(client.write(1, golden.size(), chunk).is_ok());
    golden.insert(golden.end(), chunk.begin(), chunk.end());
  }
  ASSERT_TRUE(client.fsync(1).is_ok());

  const obs::Snapshot st = tc.server().metrics();
  EXPECT_EQ(counter(st, "server.qos.throttled_ops"), kOps);
  EXPECT_EQ(counter(st, "server.qos.admitted_bytes"), 0u);
  EXPECT_EQ(counter(st, "server.degraded_sync_writes"), kOps);

  EXPECT_EQ(tc.drain_and_snapshot("f"), golden);
}

TEST(Qos, WithinBudgetWritesKeepTheFastPath) {
  // Generous budget: nothing throttles, nothing demotes, and the admitted
  // byte count matches what the client pushed.
  ClusterOptions o;
  o.server.exec = ExecModel::work_queue_async;
  o.server.qos.bytes_per_sec = 1_GiB;
  TestCluster tc(o);
  auto& client = tc.client();

  ASSERT_TRUE(client.open(1, "f").is_ok());
  const auto chunk = pattern(64_KiB, 11);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.write(1, i * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(client.fsync(1).is_ok());

  const obs::Snapshot st = tc.server().metrics();
  EXPECT_EQ(counter(st, "server.qos.throttled_ops"), 0u);
  EXPECT_EQ(counter(st, "server.qos.admitted_bytes"), 4 * 64_KiB);
  EXPECT_EQ(counter(st, "server.degraded_sync_writes"), 0u);
}

TEST(Qos, TenantTagPropagatesToEveryShardThroughRoutingClient) {
  // A RoutingClient holds one rt::Client per shard, and each inner hello
  // carries the same cfg.tenant — so one job's writes land in the SAME
  // tenant bucket on whichever shard the descriptor routes to. Proven by
  // accounting: the per-shard server.qos.<tenant>.admitted_bytes counters
  // must sum to exactly the bytes the client wrote, and every shard that
  // owns a file must have taken part.
  ClusterOptions o;
  o.shards = 3;
  o.client.tenant = 42;
  o.server.qos.bytes_per_sec = 1_GiB;  // generous: account, never throttle
  TestCluster tc(o);
  auto& client = tc.client();

  constexpr int kFiles = 8;
  const auto chunk = pattern(4_KiB, 21);
  for (int fd = 1; fd <= kFiles; ++fd) {
    const std::string path = std::string("f").append(std::to_string(fd));
    ASSERT_TRUE(client.open(fd, path).is_ok());
    ASSERT_TRUE(client.write(fd, 0, chunk).is_ok());
    ASSERT_TRUE(client.fsync(fd).is_ok());
    ASSERT_TRUE(client.close(fd).is_ok());
  }

  const auto snap = tc.ion_cluster()->metrics();
  std::uint64_t tagged = 0;
  int shards_tagged = 0;
  int shards_with_files = 0;
  for (int s = 0; s < tc.shards(); ++s) {
    const auto val = snap.counter("cluster.shard." + std::to_string(s) +
                                  ".server.qos.42.admitted_bytes");
    tagged += val;
    if (val != 0) ++shards_tagged;
    bool owns_file = false;
    for (int fd = 1; fd <= kFiles; ++fd) {
      const std::string path = std::string("f").append(std::to_string(fd));
      if (!tc.mem(s).snapshot(path).empty()) owns_file = true;
    }
    if (owns_file) ++shards_with_files;
  }
  EXPECT_EQ(tagged, kFiles * 4_KiB) << "every write must be attributed to tenant 42";
  EXPECT_EQ(shards_tagged, shards_with_files)
      << "a shard holding tenant data must have accounted it under the tenant's bucket";
  EXPECT_GE(shards_tagged, 2) << "8 descriptors over 3 shards should spread";
}

TEST(Qos, FaultHookForcesThrottleVerdictsFromAFaultPlan) {
  // The qos_fault_hook lets a FaultPlan script admission verdicts without
  // configuring rates: rule fires => the write is treated as over budget.
  // Burst of 2 on the first matching call: exactly the first two writes
  // demote, the rest keep the fast path, bytes stay intact either way.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add({.op = fault::OpKind::write, .nth = 1, .burst = 2});

  ClusterOptions o;
  o.server.exec = ExecModel::work_queue_async;
  o.server.qos_fault_hook = [plan](std::uint64_t, std::uint64_t) {
    return plan->next(fault::OpKind::write).fired();
  };
  TestCluster tc(o);
  auto& client = tc.client();

  ASSERT_TRUE(client.open(1, "f").is_ok());
  constexpr std::size_t kOps = 4;
  std::vector<std::byte> golden;
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto chunk = pattern(4_KiB, 100 + i);
    ASSERT_TRUE(client.write(1, golden.size(), chunk).is_ok());
    golden.insert(golden.end(), chunk.begin(), chunk.end());
  }
  ASSERT_TRUE(client.fsync(1).is_ok());

  const obs::Snapshot st = tc.server().metrics();
  EXPECT_EQ(counter(st, "server.degraded_sync_writes"), 2u);
  EXPECT_TRUE(testsupport::absent(st, "server.qos.throttled_ops"))
      << "the hook is not the governor: no QoS counters";

  EXPECT_EQ(tc.drain_and_snapshot("f"), golden);
}

}  // namespace
}  // namespace iofwd::rt
