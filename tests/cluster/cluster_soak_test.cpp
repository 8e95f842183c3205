// Cluster soak matrix (ctest -L soak): {2, 4} shards × {no faults, 1%
// transient stream cuts, 0.5% bit flips}, every client spraying writes
// across every shard. The contract mirrors the single-server soak — client
// isolation, zero undetected corruption, clean drain — plus the sharded
// refinements:
//
//   * cross-shard read-your-writes — each client's round-robin stream over
//     all shards stays coherent against its golden model;
//   * per-shard fault attribution — injected faults ride per-shard stream
//     plans, so the detected==injected CRC ledger balances *per shard*, not
//     just in aggregate;
//   * fleet-wide clean drain — after stop(), no shard holds a BML lease or
//     a staged burst-buffer byte.
//
// Replay failures with the logged seed: IOFWD_TEST_SEED=0x... .
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::cluster {
namespace {

using testsupport::counter;
using testsupport::gauge;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

enum class FaultMode { none, transient, bit_flip };

const char* to_cstr(FaultMode m) {
  switch (m) {
    case FaultMode::none: return "nofault";
    case FaultMode::transient: return "transient";
    case FaultMode::bit_flip: return "bitflip";
  }
  return "?";
}

struct ClusterSoakParam {
  int shards;
  FaultMode mode;
};

class ClusterSoak : public ::testing::TestWithParam<ClusterSoakParam> {};

TEST_P(ClusterSoak, CrossShardReadYourWritesWithPerShardAccounting) {
  const auto [n_shards, mode] = GetParam();
  constexpr int kClients = 4;
  const std::uint64_t seed = testsupport::test_seed("Cluster.Soak", 0xc1a5) +
                             static_cast<std::uint64_t>(n_shards);

  ClusterOptions o;
  o.shards = n_shards;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 2;
  o.server.bml_bytes = 16_MiB;
  o.server.bb_bytes = 2_MiB;
  o.server.bml_wait_ms = 50;
  o.server.bb_max_stall_ms = 50;
  o.clients = 0;
  TestCluster tc(o);

  // Per-client, per-shard stream plans: a fault fired by plans[c][s] was
  // injected on client c's connection to shard s and nowhere else.
  std::vector<std::vector<std::shared_ptr<fault::FaultPlan>>> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    TestCluster::ClientSpec spec;
    spec.cfg.roundtrip_timeout_ms = 30'000;
    spec.cfg.reconnect_attempts = 10;
    spec.cfg.reconnect_backoff_ms = 1;
    if (mode != FaultMode::none) {
      for (int s = 0; s < n_shards; ++s) {
        auto plan = std::make_shared<fault::FaultPlan>(
            seed + 100 + static_cast<std::uint64_t>(c * 16 + s));
        if (mode == FaultMode::transient) {
          plan->add({.op = fault::OpKind::stream_write,
                     .probability = 0.01,
                     .error = Errc::shutdown});
        } else {
          plan->add({.op = fault::OpKind::stream_write,
                     .action = fault::FaultAction::bit_flip,
                     .probability = 0.005});
          plan->add({.op = fault::OpKind::stream_read,
                     .action = fault::FaultAction::bit_flip,
                     .probability = 0.005});
        }
        plans[static_cast<std::size_t>(c)].push_back(plan);
        spec.shard_stream_plans.push_back(std::move(plan));
      }
      spec.reconnectable = true;
      spec.faulty_redials = true;  // the fabric stays flaky across redials
    }
    tc.add_client(std::move(spec));
  }

  // Each client opens one file per shard (fds chosen so client c's fd for
  // shard s actually routes there) and round-robins writes across them —
  // every read-back is a cross-shard read-your-writes check.
  const ShardMap map(n_shards);
  std::vector<std::vector<int>> fds(kClients,
                                    std::vector<int>(static_cast<std::size_t>(n_shards), -1));
  {
    int next_fd = 10;
    for (int c = 0; c < kClients; ++c) {
      int remaining = n_shards;
      while (remaining > 0) {
        const int fd = next_fd++;
        int& slot = fds[static_cast<std::size_t>(c)]
                       [static_cast<std::size_t>(map.shard_of(static_cast<std::uint64_t>(fd)))];
        if (slot == -1) {
          slot = fd;
          --remaining;
        }
      }
    }
  }

  const int writes_per_client = 240 / n_shards * n_shards;  // whole rounds
  std::vector<std::vector<std::vector<std::byte>>> expected(
      kClients, std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n_shards)));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto& client = tc.client(static_cast<std::size_t>(c));
      Rng rng(seed ^ (0x2000 + static_cast<std::uint64_t>(c)));
      for (int s = 0; s < n_shards; ++s) {
        const int fd = fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
        if (!client.open(fd, "cs" + std::to_string(c) + "_" + std::to_string(s)).is_ok()) {
          ++failures;
          return;
        }
      }
      for (int i = 0; i < writes_per_client; ++i) {
        const int s = i % n_shards;
        const int fd = fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
        auto& file = expected[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
        const std::size_t n = 2_KiB + rng.below(8_KiB);
        const auto data = pattern(n, rng.next());
        if (!client.write(fd, file.size(), data).is_ok()) {
          ++failures;
          return;
        }
        file.insert(file.end(), data.begin(), data.end());

        if (i % 6 == 5) {
          // Read back a random slice of a *different* shard's file: writes
          // acknowledged on one shard must be visible while its siblings
          // absorb faults.
          const int rs = (s + 1) % n_shards;
          const auto& rfile =
              expected[static_cast<std::size_t>(c)][static_cast<std::size_t>(rs)];
          if (rfile.empty()) continue;
          const std::uint64_t off = rng.below(rfile.size());
          const std::size_t len =
              std::min<std::size_t>(1 + rng.below(4_KiB), rfile.size() - off);
          auto r = client.read(
              fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(rs)], off, len);
          if (!r.is_ok() ||
              !std::equal(r.value().begin(), r.value().end(),
                          rfile.begin() + static_cast<std::ptrdiff_t>(off))) {
            ++failures;
            return;
          }
        }
      }
      for (int s = 0; s < n_shards; ++s) {
        const int fd = fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
        if (!client.fsync(fd).is_ok() || !client.close(fd).is_ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();

  // Isolation: every op on every shard succeeded (or recovered).
  EXPECT_EQ(failures, 0) << "a client failed an op it should have recovered from";
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(counter(tc.client(static_cast<std::size_t>(c)).metrics(), "client.giveups"), 0u);
  }

  // Per-shard CRC ledger: every flip injected on shard s's connections was
  // detected by shard s's server or one of its clients — attribution, not
  // just an aggregate wash.
  if (mode == FaultMode::bit_flip) {
    std::uint64_t total_injected = 0;
    for (int s = 0; s < n_shards; ++s) {
      std::uint64_t injected = 0;
      std::uint64_t detected = 0;
      for (int c = 0; c < kClients; ++c) {
        injected += plans[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)]->fired();
        const obs::Snapshot cs =
            tc.routing_client(static_cast<std::size_t>(c)).shard_client(s).metrics();
        detected += counter(cs, "client.integrity.header_crc_errors") +
                    counter(cs, "client.integrity.payload_crc_errors");
      }
      const obs::Snapshot ss = tc.server(s).metrics();
      detected += counter(ss, "server.integrity.header_crc_errors") +
                  counter(ss, "server.integrity.payload_crc_errors");
      EXPECT_EQ(detected, injected) << "shard " << s << " ledger out of balance";
      total_injected += injected;
    }
    EXPECT_GT(total_injected, 0u) << "storm too quiet to prove anything";
  }

  // Fleet-wide clean drain, then golden-model integrity per (client, shard).
  tc.stop();
  for (int s = 0; s < n_shards; ++s) {
    const obs::Snapshot st = tc.server(s).metrics();
    EXPECT_EQ(gauge(st, "server.bml_in_use"), 0) << "shard " << s << " leaked a BML lease";
    EXPECT_EQ(gauge(st, "bb.cached_bytes"), 0) << "shard " << s << " leaked staged bytes";
  }
  for (int c = 0; c < kClients; ++c) {
    for (int s = 0; s < n_shards; ++s) {
      const auto& file = expected[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
      const auto all = tc.snapshot("cs" + std::to_string(c) + "_" + std::to_string(s));
      ASSERT_EQ(all.size(), file.size()) << "client " << c << " shard " << s << " truncated";
      EXPECT_TRUE(std::equal(file.begin(), file.end(), all.begin()))
          << "client " << c << " shard " << s << " bytes differ from the golden model";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ClusterSoak,
    ::testing::Values(ClusterSoakParam{2, FaultMode::none},
                      ClusterSoakParam{2, FaultMode::transient},
                      ClusterSoakParam{2, FaultMode::bit_flip},
                      ClusterSoakParam{4, FaultMode::none},
                      ClusterSoakParam{4, FaultMode::transient},
                      ClusterSoakParam{4, FaultMode::bit_flip}),
    [](const auto& pinfo) {
      return std::string("s")
          .append(std::to_string(pinfo.param.shards))
          .append("_")
          .append(to_cstr(pinfo.param.mode));
    });

}  // namespace
}  // namespace iofwd::cluster
