// QoS soak matrix (DESIGN.md §17): {4, 16, 64} concurrent tenants ×
// {fifo, fair, edf} scheduling, every cell under 1% transient faults on both
// the backend and every client stream, asserting the soak contract:
//
//   * per-tenant isolation — every tenant's ops succeed and its file is
//     intact even while neighbors reconnect, replay, and get throttled;
//   * the governor engaged — over-budget writes were demoted (not dropped),
//     and every tenant's traffic is attributed to its own qos bucket;
//   * clean drain — after stop(), no BML lease and no burst-buffer byte is
//     still outstanding.
//
// Each client is its own tenant (cfg.tenant = id + 1) with a deliberately
// tight byte budget, so the demotion path (async staging forced synchronous)
// runs constantly under the storm — the scenario the satellite exists for.
// Runs under the "soak" ctest label; CI repeats it on the TSan/ASan legs.
// Replay any failure with the logged seed: IOFWD_TEST_SEED=0x... .
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "rt/client.hpp"
#include "rt/scheduler.hpp"
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

struct QosSoakParam {
  int clients;
  SchedPolicy policy;
};

class QosSoak : public ::testing::TestWithParam<QosSoakParam> {};

TEST_P(QosSoak, TenantsStayIsolatedUnderThrottlingAndFaults) {
  const auto [n_clients, policy] = GetParam();
  const std::uint64_t seed =
      testsupport::test_seed("Soak.Qos", 0x905a) + static_cast<std::uint64_t>(n_clients);

  // ~constant total volume: more tenants -> fewer writes each.
  const int writes_per_client = std::max(40, 2560 / n_clients);

  fault::RetryPolicy rp;
  rp.max_attempts = 8;
  rp.base_backoff = std::chrono::microseconds(50);
  rp.max_backoff = std::chrono::microseconds(2'000);

  ClusterOptions o;
  o.server.exec = ExecModel::work_queue_async;
  o.server.workers = 2;  // a contended queue, so the policy actually orders
  o.server.sched = policy;
  o.server.bml_bytes = 16_MiB;
  o.server.bb_bytes = 4_MiB;
  o.server.bml_wait_ms = 50;
  o.server.bb_max_stall_ms = 50;
  // Tight per-tenant budget: a 64 KiB burst refilling at 16 KiB/s is far
  // below what any tenant pushes, so demotion fires throughout the run. The
  // smallest share (64 tenants × ~40 writes of ~10 KiB, about 400 KiB each)
  // outruns it unless the run takes over 20 s, however slow the build.
  o.server.qos.bytes_per_sec = 16_KiB;
  o.server.qos.burst_bytes = 64_KiB;
  o.clients = 0;
  // 1% transient backend write failures, absorbed by the retry layer.
  o.backend_plan = std::make_shared<fault::FaultPlan>(seed ^ 0xbac);
  o.backend_plan->add(
      {.op = fault::OpKind::write, .probability = 0.01, .error = Errc::io_error});
  o.retry = &rp;
  TestCluster tc(o);

  for (int id = 0; id < n_clients; ++id) {
    TestCluster::ClientSpec spec;
    spec.cfg.tenant = static_cast<std::uint64_t>(id) + 1;
    spec.cfg.priority = static_cast<std::uint8_t>(id % (kMaxPriorityClass + 1));
    if (policy == SchedPolicy::edf) spec.cfg.deadline_ms = 30'000;  // generous: order, don't bounce
    spec.cfg.roundtrip_timeout_ms = 30'000;
    spec.cfg.reconnect_attempts = 10;
    spec.cfg.reconnect_backoff_ms = 1;
    // 1% of this tenant's stream writes drop the line mid-op.
    auto plan = std::make_shared<fault::FaultPlan>(seed + 100 + static_cast<std::uint64_t>(id));
    plan->add(
        {.op = fault::OpKind::stream_write, .probability = 0.01, .error = Errc::shutdown});
    spec.stream_plan = std::move(plan);
    spec.reconnectable = true;
    spec.faulty_redials = true;
    tc.add_client(std::move(spec));
  }

  std::vector<std::vector<std::byte>> expected(static_cast<std::size_t>(n_clients));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < n_clients; ++id) {
    threads.emplace_back([&, id] {
      auto& client = tc.client(static_cast<std::size_t>(id));
      Rng rng(seed ^ (0x2000 + static_cast<std::uint64_t>(id)));
      const int fd = 10 + id;
      auto& file = expected[static_cast<std::size_t>(id)];
      if (!client.open(fd, "qos" + std::to_string(id)).is_ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < writes_per_client; ++i) {
        const std::size_t n = 4_KiB + rng.below(12_KiB);
        const auto data = pattern(n, rng.next());
        if (!client.write(fd, file.size(), data).is_ok()) {
          ++failures;
          return;
        }
        file.insert(file.end(), data.begin(), data.end());

        if (i % 8 == 7) {
          // Read back a random earlier slice and compare against the model —
          // a throttled (demoted) write must still be immediately readable.
          const std::uint64_t off = rng.below(file.size());
          const std::size_t len =
              std::min<std::size_t>(1 + rng.below(8_KiB), file.size() - off);
          auto r = client.read(fd, off, len);
          if (!r.is_ok() ||
              !std::equal(r.value().begin(), r.value().end(),
                          file.begin() + static_cast<std::ptrdiff_t>(off))) {
            ++failures;
            return;
          }
        }
        if (i % 25 == 24 && !client.fsync(fd).is_ok()) {
          ++failures;
          return;
        }
      }
      if (!client.fsync(fd).is_ok() || !client.close(fd).is_ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();

  // Per-tenant isolation: every tenant completed every op despite being
  // throttled and despite the neighbors' faults.
  EXPECT_EQ(failures, 0) << "a tenant failed an op it should have recovered from";
  std::uint64_t giveups = 0;
  for (int id = 0; id < n_clients; ++id) {
    giveups += counter(tc.client(static_cast<std::size_t>(id)).metrics(), "client.giveups");
  }
  EXPECT_EQ(giveups, 0u);

  // The governor engaged, and every demotion is a sync staging, never a loss.
  const obs::Snapshot st = tc.server().metrics();
  EXPECT_GT(counter(st, "server.qos.throttled_ops"), 0u) << "budget too loose to prove anything";
  EXPECT_GE(counter(st, "server.degraded_sync_writes"), counter(st, "server.qos.throttled_ops"))
      << "every throttled write must have been demoted";

  // Per-tenant attribution: each tenant's traffic landed in its own bucket
  // (replays may admit the same bytes twice, so >= is the honest bound).
  auto& reg = tc.registry();
  for (int id = 0; id < n_clients; ++id) {
    const std::string t = std::to_string(id + 1);
    const std::uint64_t admitted = reg.counter("server.qos." + t + ".admitted_bytes").value();
    const std::uint64_t throttled = reg.counter("server.qos." + t + ".throttled_ops").value();
    EXPECT_GT(admitted + throttled, 0u) << "tenant " << t << " never reached its bucket";
  }

  // Clean drain: quiesce, then no lease may survive.
  tc.stop();
  const obs::Snapshot drained = tc.server().metrics();
  EXPECT_EQ(gauge(drained, "server.bml_in_use"), 0) << "BML pool leaked a lease";
  EXPECT_EQ(gauge(drained, "bb.cached_bytes"), 0) << "burst-buffer cache leaked a lease";

  // Golden bytes: the terminal backend holds exactly what each tenant wrote.
  for (int id = 0; id < n_clients; ++id) {
    const auto& file = expected[static_cast<std::size_t>(id)];
    const auto all = tc.snapshot("qos" + std::to_string(id));
    ASSERT_EQ(all.size(), file.size()) << "tenant " << id + 1 << " file truncated";
    EXPECT_TRUE(std::equal(file.begin(), file.end(), all.begin()))
        << "tenant " << id + 1 << " stored bytes differ from the golden model";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, QosSoak,
    ::testing::Values(QosSoakParam{4, SchedPolicy::fifo}, QosSoakParam{4, SchedPolicy::fair},
                      QosSoakParam{4, SchedPolicy::edf}, QosSoakParam{16, SchedPolicy::fifo},
                      QosSoakParam{16, SchedPolicy::fair}, QosSoakParam{16, SchedPolicy::edf},
                      QosSoakParam{64, SchedPolicy::fifo}, QosSoakParam{64, SchedPolicy::fair},
                      QosSoakParam{64, SchedPolicy::edf}),
    [](const auto& pinfo) {
      return std::string("c")
          .append(std::to_string(pinfo.param.clients))
          .append("_")
          .append(to_string(pinfo.param.policy));
    });

}  // namespace
}  // namespace iofwd::rt
