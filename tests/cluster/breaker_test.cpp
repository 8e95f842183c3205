// Per-shard circuit breaker (DESIGN.md §16): ops routed at a down shard
// fail fast instead of each burning a reconnect budget; a half-open ping
// probe readmits the shard after restart; siblings never notice.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cluster/health.hpp"
#include "cluster/routing_client.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::cluster {
namespace {

using testsupport::counter;
using testsupport::ClusterOptions;
using testsupport::TestCluster;

// A descriptor routed to `shard` by `rc`, distinct from `avoid`.
int fd_on_shard(const RoutingClient& rc, int shard, int avoid = -1) {
  for (int fd = 1; fd < 4096; ++fd) {
    if (fd != avoid && rc.shard_of(fd) == shard) return fd;
  }
  ADD_FAILURE() << "no fd routes to shard " << shard;
  return -1;
}

ClusterOptions breaker_options() {
  ClusterOptions o;
  o.shards = 2;
  o.reconnectable = true;
  // Tight reconnect budget so a dead shard is detected in a few ms per op.
  o.client.reconnect_attempts = 1;
  o.client.reconnect_backoff_ms = 1;
  o.client.reconnect_backoff_max_ms = 2;
  // Generous probe window so the fast-fail assertions below are not racing
  // the wall clock.
  o.breaker.probe_after_ms = 200;
  return o;
}

TEST(Breaker, OpensOnDeadShardFailsFastAndReadmitsViaProbe) {
  TestCluster tc(breaker_options());
  auto& rc = tc.routing_client(0);
  const int victim = 1;
  const int sibling = 0;
  const int vfd = fd_on_shard(rc, victim);
  const int sfd = fd_on_shard(rc, sibling);

  ASSERT_TRUE(rc.open(vfd, "v").is_ok());
  ASSERT_TRUE(rc.open(sfd, "s").is_ok());
  EXPECT_EQ(rc.shard_health(victim).state(), HealthState::healthy);

  tc.kill_shard(victim);

  // Consecutive connection-shaped failures trip the breaker. Each op here
  // still pays the (tight) reconnect budget; after down_after of them the
  // shard is marked down.
  int failures = 0;
  for (int i = 0; i < 10 && counter(rc.metrics(), "client.breaker.opens") == 0; ++i) {
    Status st = rc.fsync(vfd);
    EXPECT_FALSE(st.is_ok());
    ++failures;
  }
  EXPECT_EQ(counter(rc.metrics(), "client.breaker.opens"), 1u);
  EXPECT_GE(failures, rc.shard_health(victim).config().down_after);
  EXPECT_EQ(rc.shard_health(victim).state(), HealthState::down);

  // Open breaker: the op is bounced before touching the wire (well inside
  // the 200 ms probe window), with the connection-shaped error reconnecting
  // callers expect.
  Status fast = rc.fsync(vfd);
  EXPECT_FALSE(fast.is_ok());
  EXPECT_EQ(fast.code(), Errc::not_connected);
  EXPECT_NE(fast.message().find("circuit open"), std::string::npos) << fast.message();
  EXPECT_GE(counter(rc.metrics(), "client.breaker.fast_fails"), 1u);

  // The sibling serves throughout — per-shard health, not fleet health.
  EXPECT_TRUE(rc.fsync(sfd).is_ok());
  EXPECT_EQ(rc.shard_health(sibling).state(), HealthState::healthy);
  EXPECT_EQ(counter(rc.metrics(), "client.breaker.opens"), 1u);

  tc.restart_shard(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // First op past the window is elected as the half-open probe; the probe
  // ping re-dials into the restarted shard (replaying opens), closes the
  // breaker, and the op itself proceeds.
  Status st = rc.fsync(vfd);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(rc.shard_health(victim).state(), HealthState::healthy);
  const obs::Snapshot cm = rc.metrics();
  EXPECT_GE(counter(cm, "client.breaker.probes"), 1u);
  EXPECT_GE(counter(cm, "client.breaker.closes"), 1u);

  // Readmitted for real: a write lands and reads back.
  const auto data = testsupport::pattern(512, 0x5eed);
  ASSERT_TRUE(rc.write(vfd, 0, data).is_ok());
  auto rd = rc.read(vfd, 0, data.size());
  ASSERT_TRUE(rd.is_ok());
  EXPECT_EQ(rd.value(), data);
}

TEST(Breaker, ProbeAgainstStillDeadShardReopens) {
  ClusterOptions o = breaker_options();
  o.breaker.probe_after_ms = 30;  // short window: we *want* probes here
  TestCluster tc(o);
  auto& rc = tc.routing_client(0);
  const int victim = 1;
  const int vfd = fd_on_shard(rc, victim);
  ASSERT_TRUE(rc.open(vfd, "v").is_ok());

  tc.kill_shard(victim);
  for (int i = 0; i < 10 && counter(rc.metrics(), "client.breaker.opens") == 0; ++i) {
    EXPECT_FALSE(rc.fsync(vfd).is_ok());
  }
  ASSERT_EQ(rc.shard_health(victim).state(), HealthState::down);

  // Past the window against a still-dead shard: the elected probe fails and
  // the breaker snaps back open instead of letting traffic through.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status st = rc.fsync(vfd);
  EXPECT_FALSE(st.is_ok());
  const obs::Snapshot cm = rc.metrics();
  EXPECT_GE(counter(cm, "client.breaker.probes"), 1u);
  EXPECT_EQ(counter(cm, "client.breaker.closes"), 0u);
  EXPECT_EQ(rc.shard_health(victim).state(), HealthState::down);
}

}  // namespace
}  // namespace iofwd::cluster
