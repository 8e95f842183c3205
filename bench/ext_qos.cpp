// Extension experiment: per-tenant fair-share isolation (DESIGN.md §17).
//
// The ROADMAP's nightmare tenant: one hot client (tenant 1000, speaking v1
// with payload CRCs like everyone else) pipelines a deep window of large
// writes through the ION while 63 quiet tenants (1..63) each trickle small
// synchronous writes. The server runs a single-worker synchronous work queue
// over a fixed-service-rate device, so the task queue IS the contended
// resource and the scheduling policy decides who eats the device.
//
//   * baseline — the 63 quiet tenants alone (no hot tenant), FIFO;
//   * fifo+hot — the flood shares FIFO order: every quiet op queues behind
//     the hot tenant's whole outstanding window, and quiet goodput craters;
//   * fair+hot — deficit round-robin caps the hot tenant at one quantum per
//     round, so the quiet tenants keep their aggregate goodput.
//
// Gate (exit 1): quiet aggregate goodput under fair with the hot tenant
// present must stay >= 90% of the no-hot-tenant baseline, best-of-reps on
// both sides. The fifo+hot point is reported for contrast but not gated —
// it is the regression the fair policy exists to prevent.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/scheduler.hpp"
#include "rt/server.hpp"
#include "rt/transport.hpp"

namespace {

using namespace iofwd;

constexpr int kQuietTenants = 63;
constexpr std::size_t kPipeBytes = 256_KiB;
constexpr std::size_t kQuietWrite = 16_KiB;
constexpr std::size_t kHotWrite = 64_KiB;
constexpr int kHotWindow = 128;
constexpr std::uint64_t kHotTenant = 1000;
constexpr auto kDeviceLatency = std::chrono::microseconds(30);

// A fixed-service-rate device: every write costs kDeviceLatency before the
// MemBackend absorbs it. With one synchronous worker in front, the queue in
// front of this device is the bottleneck the policies arbitrate.
class SlowBackend final : public rt::IoBackend {
 public:
  Status open(int fd, const std::string& path) override { return mem_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    std::this_thread::sleep_for(kDeviceLatency);
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
};

// Aggregate quiet-tenant MiB/s: 63 quiet tenants x `writes` x 16 KiB
// synchronous writes each, optionally against a hot tenant pipelining a
// 128-deep window of 64 KiB writes for the whole measurement.
double quiet_mibs(rt::SchedPolicy policy, bool with_hot, int writes, int reps) {
  double best = 0.0;
  const std::vector<std::byte> quiet_chunk(kQuietWrite, std::byte{0x51});
  const std::vector<std::byte> hot_chunk(kHotWrite, std::byte{0xb0});
  for (int r = 0; r < reps; ++r) {
    rt::ServerConfig cfg;
    cfg.exec = rt::ExecModel::work_queue;  // replies on completion: queue order is visible
    cfg.workers = 1;
    cfg.sched = policy;
    // One quiet op of credit per round: the hot tenant's 64 KiB ops must
    // save up 4 rounds of deficit per dispatch, matching its 4x byte cost.
    cfg.sched_quantum_bytes = kQuietWrite;
    cfg.bml_bytes = 64_MiB;
    rt::IonServer server(std::make_unique<SlowBackend>(), cfg);

    // Quiet tenants: one synchronous client each, tenants 1..63.
    std::vector<std::unique_ptr<rt::Client>> quiet;
    quiet.reserve(kQuietTenants);
    for (int c = 0; c < kQuietTenants; ++c) {
      auto [srv, cl] = rt::InProcTransport::make_pair(kPipeBytes);
      server.serve(std::move(srv));
      rt::ClientConfig ccfg;
      ccfg.tenant = static_cast<std::uint64_t>(c) + 1;
      quiet.push_back(std::make_unique<rt::Client>(std::move(cl), ccfg));
      if (!quiet.back()->open(1 + c, "quiet" + std::to_string(c)).is_ok()) {
        std::fprintf(stderr, "quiet open failed for tenant %d\n", c + 1);
        return 0.0;
      }
    }

    // Hot tenant: a windowed Client with its own tenant id flooding large
    // writes, kHotWindow of them awaiting their acks at any time.
    std::unique_ptr<rt::Client> hot;
    std::atomic<bool> stop_hot{false};
    std::thread hot_thread;
    if (with_hot) {
      auto [srv, cl] = rt::InProcTransport::make_pair(kPipeBytes);
      server.serve(std::move(srv));
      rt::ClientConfig hcfg;
      hcfg.tenant = kHotTenant;
      hcfg.window = kHotWindow;
      hot = std::make_unique<rt::Client>(std::move(cl), hcfg);
      if (!hot->open(1000, "hot").is_ok()) {
        std::fprintf(stderr, "hot open failed\n");
        return 0.0;
      }
      hot_thread = std::thread([&] {
        std::uint64_t off = 0;
        std::deque<rt::Client::Ticket> inflight;
        while (!stop_hot.load(std::memory_order_acquire)) {
          inflight.push_back(hot->submit_write(1000, off, hot_chunk));
          off += kHotWrite;
          // Collect the oldest ack so settled tickets stay bounded.
          if (inflight.size() > static_cast<std::size_t>(kHotWindow)) {
            (void)hot->wait(inflight.front());
            inflight.pop_front();
          }
        }
        for (auto t : inflight) (void)hot->wait(t);
      });
    }

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kQuietTenants);
    for (int c = 0; c < kQuietTenants; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        rt::Client& cl = *quiet[static_cast<std::size_t>(c)];
        for (int i = 0; i < writes; ++i) {
          (void)cl.write(1 + c, static_cast<std::uint64_t>(i) * kQuietWrite, quiet_chunk);
        }
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    if (with_hot) {
      stop_hot.store(true, std::memory_order_release);
      hot_thread.join();
      (void)hot->shutdown();
    }
    server.stop();
    const double quiet_mib = static_cast<double>(kQuietTenants) * writes *
                             static_cast<double>(kQuietWrite) / (1 << 20);
    best = std::max(best, quiet_mib / secs);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const int reps = args.quick ? 2 : 3;
  const int writes = args.quick ? 24 : 48;

  analysis::DiagTable t("ext_qos: quiet-tenant aggregate goodput vs one hot tenant (63+1)");
  const double baseline = quiet_mibs(rt::SchedPolicy::fifo, false, writes, reps);
  const double fifo_hot = quiet_mibs(rt::SchedPolicy::fifo, true, writes, reps);
  const double fair_hot = quiet_mibs(rt::SchedPolicy::fair, true, writes, reps);

  t.add("baseline (no hot)", baseline,
        "MiB/s quiet aggregate, 63 tenants x " + std::to_string(writes) + " x " +
            bench::mib(kQuietWrite) + " writes, best of " + std::to_string(reps));
  t.add("fifo + hot", fifo_hot,
        "hot tenant pipelines " + std::to_string(kHotWindow) + " x " + bench::mib(kHotWrite) +
            " writes; quiet ops queue behind the whole window");
  t.add("fair + hot", fair_hot, "deficit round-robin caps the hot tenant at one quantum/round");
  const double fair_ratio = baseline > 0 ? fair_hot / baseline : 0.0;
  const double fifo_ratio = baseline > 0 ? fifo_hot / baseline : 0.0;
  t.add("fair/baseline", fair_ratio, "gate: >= 0.90 (quiet tenants keep their share)");
  t.add("fifo/baseline", fifo_ratio, "reported for contrast (the regression fair prevents)");
  std::fputs(t.render().c_str(), stdout);

  if (fair_ratio < 0.90) {
    std::fprintf(stderr,
                 "FAIL: quiet goodput under fair is only %.0f%% of the no-hot baseline\n",
                 100.0 * fair_ratio);
    return 1;
  }
  std::printf("PASS: quiet tenants keep %.0f%% of baseline goodput under fair-share\n",
              100.0 * fair_ratio);
  return 0;
}
