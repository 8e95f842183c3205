// Process-level chaos (DESIGN.md §16): a 4-shard cluster with journaled
// burst buffers loses one shard mid-run to a hard crash. The contract under
// test is the tentpole durability guarantee — zero acked-write loss: every
// write the cluster acknowledged before (or after) the crash is golden-byte
// readable at the end, the siblings keep serving while the victim is down,
// and the health/journal metrics account for the whole event.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/routing_client.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::cluster {
namespace {

using testsupport::counter;
using testsupport::ClusterOptions;
using testsupport::TestCluster;

struct PendingWrite {
  int fd = 0;
  std::uint64_t off = 0;
  std::vector<std::byte> bytes;
};

TEST(ShardCrash, KilledShardRecoversEveryAckedByte) {
  const std::uint64_t seed = testsupport::test_seed("shard_crash", 0x5eedc4a5u);
  Rng rng(seed);

  ClusterOptions o;
  o.shards = 4;
  o.reconnectable = true;
  o.bb_journal = true;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 2;
  o.server.bb_bytes = 8_MiB;
  // Quiet watermarks: staged extents stay in the cache, so the journal (not
  // the flusher) is what protects acked bytes across the kill.
  o.server.bb_high_watermark = 1.0;
  o.server.bb_low_watermark = 1.0;
  o.client.reconnect_attempts = 1;
  o.client.reconnect_backoff_ms = 1;
  o.client.reconnect_backoff_max_ms = 4;
  o.breaker.probe_after_ms = 20;
  TestCluster tc(o);
  auto& rc = tc.routing_client(0);

  constexpr int kFds = 32;
  const int victim = 2;
  // Golden model of every ACKED write: fd -> contiguous append cursor +
  // bytes. Offsets per fd are disjoint and contiguous, so the expected file
  // image is just the concatenation.
  std::map<int, std::vector<std::byte>> golden;  // fd -> full expected image
  std::map<int, std::uint64_t> cursor;           // fd -> next write offset

  auto path_of = [](int fd) { return "crash-f" + std::to_string(fd); };
  auto ack = [&](int fd, std::uint64_t off, const std::vector<std::byte>& bytes) {
    auto& img = golden[fd];
    ASSERT_EQ(off, img.size()) << "golden model expects contiguous appends";
    img.insert(img.end(), bytes.begin(), bytes.end());
  };
  auto next_write = [&](int fd) {
    PendingWrite w;
    w.fd = fd;
    w.off = cursor[fd];
    w.bytes = testsupport::pattern(1024 + rng.below(16 * 1024), seed ^ (cursor[fd] << 8) ^
                                                                   static_cast<std::uint64_t>(fd));
    cursor[fd] += w.bytes.size();
    return w;
  };

  for (int fd = 1; fd <= kFds; ++fd) {
    ASSERT_TRUE(rc.open(fd, path_of(fd)).is_ok());
  }

  // Phase A: healthy soak — several rounds across every shard, all acked.
  for (int round = 0; round < 4; ++round) {
    for (int fd = 1; fd <= kFds; ++fd) {
      const PendingWrite w = next_write(fd);
      Status st = rc.write(w.fd, w.off, w.bytes);
      ASSERT_TRUE(st.is_ok()) << "fd " << fd << ": " << st.to_string();
      ack(w.fd, w.off, w.bytes);
    }
  }

  // Phase B: hard-crash the victim mid-run. Writes routed at it fail (and
  // trip its breaker); every sibling write keeps succeeding.
  tc.kill_shard(victim);
  EXPECT_EQ(tc.ion_cluster()->shard_state(victim), HealthState::down);
  std::vector<PendingWrite> pending;  // victim writes to retry after restart
  std::uint64_t sibling_acks = 0;
  for (int round = 0; round < 3; ++round) {
    for (int fd = 1; fd <= kFds; ++fd) {
      PendingWrite w = next_write(fd);
      Status st = rc.write(w.fd, w.off, w.bytes);
      if (rc.shard_of(fd) == victim) {
        EXPECT_FALSE(st.is_ok()) << "write to a crashed shard cannot ack";
        pending.push_back(std::move(w));
      } else {
        ASSERT_TRUE(st.is_ok()) << "sibling shard " << rc.shard_of(fd)
                                << " must keep serving: " << st.to_string();
        ack(w.fd, w.off, w.bytes);
        ++sibling_acks;
      }
    }
  }
  EXPECT_GT(sibling_acks, 0u);
  EXPECT_FALSE(pending.empty());

  // Phase C: restart the victim. Its burst buffer replays the journal
  // during construction, then the breaker's half-open probe readmits it.
  // Retry-until-acked for every write that failed during the outage.
  tc.restart_shard(victim);
  EXPECT_EQ(tc.ion_cluster()->shard_state(victim), HealthState::healthy);
  for (auto& w : pending) {
    Status st;
    bool acked = false;
    for (int attempt = 0; attempt < 400 && !acked; ++attempt) {
      st = rc.write(w.fd, w.off, w.bytes);
      acked = st.is_ok();
      if (!acked) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(acked) << "retry never acked: " << st.to_string();
    ack(w.fd, w.off, w.bytes);
  }

  // Phase D: post-recovery soak — the whole fleet serves again.
  for (int fd = 1; fd <= kFds; ++fd) {
    const PendingWrite w = next_write(fd);
    Status st = rc.write(w.fd, w.off, w.bytes);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ack(w.fd, w.off, w.bytes);
  }

  // Metrics account for the event: one kill, one restart, and the victim's
  // fresh registry carries the journal replay counts.
  const auto snap = tc.ion_cluster()->metrics();
  EXPECT_EQ(snap.counters.at("cluster.health.kills"), 1u);
  EXPECT_EQ(snap.counters.at("cluster.health.restarts"), 1u);
  const std::string vic = "cluster.shard." + std::to_string(victim) + ".";
  ASSERT_TRUE(snap.counters.count(vic + "bb.journal.recovered"));
  EXPECT_GT(snap.counters.at(vic + "bb.journal.recovered"), 0u)
      << "the victim had acked staged extents; replay must recover them";
  const obs::Snapshot cm = rc.metrics();
  EXPECT_GE(counter(cm, "client.breaker.opens"), 1u);
  EXPECT_GE(counter(cm, "client.breaker.closes"), 1u);

  // Phase E: drain everything and verify golden-byte equality — zero acked
  // bytes lost, none duplicated, none reordered.
  tc.stop();
  for (int fd = 1; fd <= kFds; ++fd) {
    const auto bytes = tc.snapshot(path_of(fd));
    const auto& want = golden[fd];
    ASSERT_EQ(bytes.size(), want.size()) << "fd " << fd << " (shard " << rc.shard_of(fd) << ")";
    EXPECT_EQ(bytes, want) << "fd " << fd << " lost or corrupted acked bytes";
  }
}

}  // namespace
}  // namespace iofwd::cluster
