// Randomized cross-stack integration tests.
//
// A seeded generator drives random operation mixes through (a) every
// simulated forwarding mechanism and (b) the real runtime, then checks
// system invariants:
//   * every accepted byte is delivered exactly once;
//   * BML / ION memory accounting returns to zero;
//   * the simulation is deterministic per seed;
//   * the runtime's stored data matches a golden in-memory model.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "bgp/machine.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "proto/queue_forwarder.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "sim/sync.hpp"
#include "wl/stream.hpp"

namespace iofwd {
namespace {

// ---------------------------------------------------------------------------
// Simulated stack
// ---------------------------------------------------------------------------

struct SimFuzzResult {
  std::uint64_t issued_bytes = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t failed_ops = 0;
  sim::SimTime end_time = 0;
};

sim::Proc<void> fuzz_cn(bgp::Machine& m, proto::Forwarder& fwd, int cn, Rng rng, int ops,
                        SimFuzzResult& out) {
  auto& eng = m.engine();
  const int fd = 10 + cn;
  (void)co_await fwd.open(cn, fd);
  for (int i = 0; i < ops; ++i) {
    // Random think time, size, sink, direction, priority.
    co_await sim::Delay{eng, static_cast<sim::SimTime>(rng.below(2'000'000))};
    const std::uint64_t bytes = 1 + rng.below(2_MiB);
    proto::SinkTarget sink;
    const auto kind = rng.below(3);
    sink.kind = kind == 0   ? proto::SinkTarget::Kind::dev_null
                : kind == 1 ? proto::SinkTarget::Kind::da_memory
                            : proto::SinkTarget::Kind::storage;
    sink.block = rng.below(1 << 20);
    sink.priority = static_cast<int>(rng.below(3));
    Status st;
    if (rng.below(4) == 0) {
      st = co_await fwd.read(cn, fd, bytes, sink);
    } else {
      st = co_await fwd.write(cn, fd, bytes, sink);
    }
    if (st.is_ok()) {
      out.issued_bytes += bytes;
    } else {
      ++out.failed_ops;
    }
  }
  (void)co_await fwd.close(cn, fd);
}

SimFuzzResult run_sim_fuzz(proto::Mechanism mech, std::uint64_t seed, int cns, int ops,
                           proto::ForwarderConfig fc = {}) {
  sim::Engine eng;
  bgp::Machine machine(eng, bgp::MachineConfig::intrepid());
  proto::RunMetrics metrics;
  auto fwd = proto::make_forwarder(mech, machine, machine.pset(0), metrics, fc);

  SimFuzzResult out;
  eng.spawn([](bgp::Machine& m, proto::Forwarder& f, Rng root, int n_cns, int n_ops,
               SimFuzzResult& res) -> sim::Proc<void> {
    std::vector<sim::Proc<void>> procs;
    for (int cn = 0; cn < n_cns; ++cn) {
      procs.push_back(fuzz_cn(m, f, cn, root.fork(), n_ops, res));
    }
    co_await sim::when_all(m.engine(), std::move(procs));
    co_await f.drain();
    f.shutdown();
  }(machine, *fwd, Rng(seed), cns, ops, out));
  eng.run();

  out.delivered_bytes = metrics.bytes_delivered;
  out.end_time = eng.now();

  // Post-conditions that must hold for every mechanism and seed:
  EXPECT_EQ(machine.pset(0).ion().memory().available(),
            static_cast<std::int64_t>(machine.config().ion_memory_bytes))
      << "ION memory leaked";
  if (auto* qf = dynamic_cast<proto::QueueForwarder*>(fwd.get())) {
    EXPECT_EQ(qf->bml().in_use(), 0u) << "BML leaked";
  }
  return out;
}

class SimFuzz : public ::testing::TestWithParam<std::tuple<proto::Mechanism, std::uint64_t>> {};

TEST_P(SimFuzz, ConservationAndCleanup) {
  const auto [mech, seed] = GetParam();
  const auto r = run_sim_fuzz(mech, seed, /*cns=*/12, /*ops=*/15);
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(r.delivered_bytes, r.issued_bytes) << "bytes lost or duplicated";
  EXPECT_GT(r.end_time, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimFuzz,
    ::testing::Combine(::testing::Values(proto::Mechanism::ciod, proto::Mechanism::zoid,
                                         proto::Mechanism::zoid_sched,
                                         proto::Mechanism::zoid_sched_async),
                       ::testing::Values(1u, 42u, 1337u)),
    [](const auto& pinfo) {
      std::string s = proto::to_string(std::get<0>(pinfo.param)) + "_seed" +
                      std::to_string(std::get<1>(pinfo.param));
      for (auto& ch : s) {
        if (ch == '+') ch = '_';
      }
      return s;
    });

TEST(SimFuzz, DeterministicPerSeed) {
  const auto a = run_sim_fuzz(proto::Mechanism::zoid_sched_async, 7, 8, 10);
  const auto b = run_sim_fuzz(proto::Mechanism::zoid_sched_async, 7, 8, 10);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
}

TEST(SimFuzz, DifferentSeedsDiffer) {
  const auto a = run_sim_fuzz(proto::Mechanism::zoid_sched_async, 7, 8, 10);
  const auto b = run_sim_fuzz(proto::Mechanism::zoid_sched_async, 8, 8, 10);
  EXPECT_NE(a.end_time, b.end_time);
}

TEST(SimFuzz, PoliciesPreserveConservation) {
  for (auto pol : {proto::QueuePolicy::sjf, proto::QueuePolicy::priority}) {
    proto::ForwarderConfig fc;
    fc.policy = pol;
    const auto r = run_sim_fuzz(proto::Mechanism::zoid_sched_async, 99, 10, 12, fc);
    EXPECT_EQ(r.delivered_bytes, r.issued_bytes) << proto::to_string(pol);
  }
}

TEST(SimFuzz, TinyBmlStillConserves) {
  proto::ForwarderConfig fc;
  fc.bml_bytes = 1_MiB;  // heavy staging pressure
  const auto r = run_sim_fuzz(proto::Mechanism::zoid_sched_async, 5, 10, 12, fc);
  EXPECT_EQ(r.delivered_bytes, r.issued_bytes);
}

// ---------------------------------------------------------------------------
// Real runtime
// ---------------------------------------------------------------------------

TEST(RtFuzz, RandomOpsMatchGoldenModel) {
  for (const std::uint64_t seed : {11u, 23u}) {
    auto backend = std::make_unique<rt::MemBackend>();
    auto* mem = backend.get();
    rt::ServerConfig cfg;
    cfg.workers = 1;  // FIFO execution: overlapping writes apply in program order
    rt::IonServer server(std::move(backend), cfg);
    auto [se, ce] = rt::InProcTransport::make_pair();
    server.serve(std::move(se));
    rt::Client client(std::move(ce));

    Rng rng(seed);
    std::map<std::string, std::vector<std::byte>> golden;
    ASSERT_TRUE(client.open(1, "fuzz").is_ok());
    auto& gfile = golden["fuzz"];

    for (int i = 0; i < 200; ++i) {
      const std::uint64_t off = rng.below(1 << 20);
      const std::uint64_t len = 1 + rng.below(64 * 1024);
      if (rng.below(3) == 0) {
        // Read and compare against the golden model.
        auto r = client.read(1, off, len);
        ASSERT_TRUE(r.is_ok());
        std::vector<std::byte> expect;
        if (off < gfile.size()) {
          const auto n = std::min<std::uint64_t>(len, gfile.size() - off);
          expect.assign(gfile.begin() + static_cast<std::ptrdiff_t>(off),
                        gfile.begin() + static_cast<std::ptrdiff_t>(off + n));
        }
        ASSERT_EQ(r.value(), expect) << "read mismatch at op " << i;
      } else {
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next());
        ASSERT_TRUE(client.write(1, off, data).is_ok());
        if (gfile.size() < off + len) gfile.resize(off + len);
        std::copy(data.begin(), data.end(),
                  gfile.begin() + static_cast<std::ptrdiff_t>(off));
      }
    }
    ASSERT_TRUE(client.fsync(1).is_ok());
    EXPECT_EQ(mem->snapshot("fuzz"), gfile);
    ASSERT_TRUE(client.close(1).is_ok());
    server.stop();
  }
}

}  // namespace
}  // namespace iofwd
