// Extension experiment: connection-count scaling of the receiver lanes and
// the asynchronous send path (DESIGN.md §13, §15).
//
// The paper's ZOID daemon multiplexes every compute-node connection over a
// small poll()-driven thread pool instead of burning one receive thread per
// CN; this repo's equivalent is the epoll receiver lane plus the EPOLLOUT
// send queue. The property that makes that design viable is *flat aggregate
// throughput*: 1024 connections must move bytes about as fast as 16, because
// the lanes (not the connection count) bound the per-byte work.
//
// This bench drives 1 -> 1024 in-process connections against one IonServer.
// Each connection is an rt::Client whose window holds every request of the
// run (writes + 1), so the harness *pipelines*: each driver thread submits
// every write frame for a connection back-to-back and reaps the 56-byte
// acks afterwards, the way a real CN-side forwarder batches — a blocking
// write per op would serialize on ack latency and measure the host
// scheduler, not the server. Deferred reaping also means acks pile up
// against a full client ring, so the send path's EPOLLOUT arming and
// gathered writev drain are on the hot path of this measurement, not an
// untested corner. The clients start no threads of their own (no receive
// thread; the roundtrip watchdog stays off), and connections are spread
// over at most kMaxDriverThreads driver threads. Aggregate throughput =
// total payload bytes / wall time from a synchronized start until every
// connection's acks (including the fsync barrier reply) are reaped and
// verified.
//
// Gates (exit 1):
//   * throughput(256 clients)  >= 90% of throughput(16 clients)
//   * throughput(1024 clients) >= 85% of throughput(16 clients)
//   * zero reply-payload memcpys: an untimed read-back phase pulls data back
//     through every connection, and the server's copy counter
//     (server.reply.payload_copy_bytes) must stay 0 — read replies gather
//     straight from BML leases via writev (DESIGN.md §15), so any nonzero
//     value is a staging-copy regression on the data path.
// Each rep measures the whole curve, and the ratio gates take the best
// *paired* ratio across reps — both sides of a ratio come from the same rep,
// measured seconds apart, so time-correlated host noise (the dominant error
// on a small shared box) cancels instead of letting one lucky 16-client rep
// sink the gate. The table reports best-of-reps per point. The 1/4-client
// points are reported for the curve but not gated — absolute speed is
// machine noise, the *shape* is the design property.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/transport.hpp"

namespace {

using namespace iofwd;

constexpr std::size_t kPipeBytes = 32_KiB;   // per-direction in-proc ring
constexpr std::size_t kWriteBytes = 16_KiB;  // per-op payload
constexpr int kMaxDriverThreads = 16;        // uniform from the 16-client point up

// Aggregate MiB/s for one run of `clients` concurrent connections, each
// issuing `writes` kWriteBytes writes and one fsync barrier. After the timed
// run, every connection reads one payload back (untimed) so read replies
// exercise the gathered zero-copy send path; the server's reply-copy counter
// is accumulated into `copy_bytes` for the zero-copy gate.
double aggregate_mibs(int clients, int writes, std::uint64_t& copy_bytes) {
  const std::vector<std::byte> chunk(kWriteBytes, std::byte{0x5a});
  rt::ServerConfig scfg;
  scfg.exec = rt::ExecModel::work_queue_async;
  scfg.bml_bytes = 64_MiB;
  rt::IonServer server(std::make_unique<rt::MemBackend>(), scfg);

  // Every request of the timed run fits the window: the writes plus the
  // fsync barrier, so no submit reaps before the reap phase.
  rt::ClientConfig ccfg;
  ccfg.window = writes + 1;
  std::vector<std::unique_ptr<rt::Client>> conns;
  conns.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    auto [s, cl] = rt::InProcTransport::make_pair(kPipeBytes);
    server.serve(std::move(s));
    conns.push_back(std::make_unique<rt::Client>(std::move(cl), ccfg));
    if (!conns.back()->open(c + 1, "conn" + std::to_string(c)).is_ok()) {
      std::fprintf(stderr, "connection setup failed\n");
      return 0.0;
    }
  }

  const int drivers = std::min(clients, kMaxDriverThreads);
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(drivers));
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      std::vector<std::vector<rt::Client::Ticket>> tickets;
      for (int c = d; c < clients; c += drivers) {
        tickets.emplace_back().reserve(static_cast<std::size_t>(writes) + 1);
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Phase 1: send every frame for this driver's strided slice. Acks
      // accumulate in each connection's reply ring / server send queue
      // (bounded: (writes + 1) 56-byte headers per connection).
      for (int c = d, k = 0; c < clients; c += drivers, ++k) {
        rt::Client& cl = *conns[static_cast<std::size_t>(c)];
        auto& ts = tickets[static_cast<std::size_t>(k)];
        for (int i = 0; i < writes; ++i) {
          ts.push_back(cl.submit_write(c + 1, static_cast<std::uint64_t>(i) * kWriteBytes, chunk));
        }
        ts.push_back(cl.submit_fsync(c + 1));
      }
      // Phase 2: reap and verify every ack (writes + fsync barrier per
      // connection). The clock stops only after the server has proven all
      // ops done — and draining the full rings here is what fires the
      // EPOLLOUT edges the send path parked on.
      for (int c = d, k = 0; c < clients; c += drivers, ++k) {
        rt::Client& cl = *conns[static_cast<std::size_t>(c)];
        for (auto t : tickets[static_cast<std::size_t>(k)]) {
          if (!cl.wait(t).is_ok()) failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%d failed acks at %d clients\n", failures.load(), clients);
    return 0.0;
  }

  // Untimed read-back: one full payload per connection (the client checks
  // its CRC). The reply path must serve these from BML leases with zero
  // staging copies.
  std::atomic<int> read_failures{0};
  threads.clear();
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      for (int c = d; c < clients; c += drivers) {
        auto data = conns[static_cast<std::size_t>(c)]->read(c + 1, 0, kWriteBytes);
        if (!data.is_ok() || data.value().size() != kWriteBytes ||
            data.value()[0] != std::byte{0x5a}) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (read_failures.load() != 0) {
    std::fprintf(stderr, "read-back failed on %d of %d connections\n", read_failures.load(),
                 clients);
    return 0.0;
  }

  for (int c = 0; c < clients; ++c) (void)conns[static_cast<std::size_t>(c)]->close(c + 1);
  copy_bytes += server.metrics().counter("server.reply.payload_copy_bytes");
  server.stop();

  const double total_mib =
      static_cast<double>(clients) * writes * static_cast<double>(kWriteBytes) / (1 << 20);
  return total_mib / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const int reps = args.quick ? 2 : 3;
  // Constant total volume per point: every point pushes the same number of
  // bytes through the server, split across however many connections, so the
  // ratio compares steady-state multiplexing — not per-connection setup.
  const std::uint64_t total_bytes = (args.quick ? 64 : 256) * std::uint64_t{1_MiB};

  const int points[] = {1, 4, 16, 64, 256, 1024};
  int writes[std::size(points)];
  for (std::size_t i = 0; i < std::size(points); ++i) {
    // Floor of 32 writes/connection: at the 1024-client point the constant
    // volume would leave only a handful of writes per connection, and the
    // measurement would be mostly per-connection barriers instead of steady
    // state. Keep (writes + 1) * 56 bytes well under the server's
    // send_queue_bytes bound — deferred reaping parks that many ack bytes
    // per connection.
    writes[i] = std::max(32, static_cast<int>(total_bytes / (static_cast<std::uint64_t>(points[i]) *
                                                             kWriteBytes)));
  }

  // Rep-by-rep over the whole curve: each gate ratio is computed within one
  // rep (numerator and denominator seconds apart), and the gates take the
  // best paired ratio — time-correlated host noise cancels. The table shows
  // best-of-reps per point.
  double mibs[std::size(points)] = {};
  double ratio256 = 0.0;
  double ratio1k = 0.0;
  std::uint64_t copy_bytes = 0;
  for (int r = 0; r < reps; ++r) {
    double rep_mibs[std::size(points)];
    for (std::size_t i = 0; i < std::size(points); ++i) {
      rep_mibs[i] = aggregate_mibs(points[i], writes[i], copy_bytes);
      mibs[i] = std::max(mibs[i], rep_mibs[i]);
    }
    if (rep_mibs[2] > 0) {
      ratio256 = std::max(ratio256, rep_mibs[4] / rep_mibs[2]);
      ratio1k = std::max(ratio1k, rep_mibs[5] / rep_mibs[2]);
    }
  }

  analysis::DiagTable t("ext_connscale: aggregate write throughput vs connection count");
  for (std::size_t i = 0; i < std::size(points); ++i) {
    t.add(std::to_string(points[i]) + " clients", mibs[i],
          "MiB/s aggregate, " + std::to_string(writes[i]) + " x " + bench::mib(kWriteBytes) +
              " writes/client, best of " + std::to_string(reps));
  }
  t.add("256/16 ratio", ratio256, "gate: >= 0.90, best paired rep (lanes must not collapse)");
  t.add("1024/16 ratio", ratio1k, "gate: >= 0.85, best paired rep (send queues must hold)");
  t.add("reply copy bytes", static_cast<double>(copy_bytes),
        "gate: == 0 (replies gather from leases, no staging memcpy)");
  std::fputs(t.render().c_str(), stdout);

  bool ok = true;
  if (ratio256 < 0.90) {
    std::fprintf(stderr, "FAIL: 256-client throughput is %.1f%% of the 16-client point (< 90%%)\n",
                 100.0 * ratio256);
    ok = false;
  }
  if (ratio1k < 0.85) {
    std::fprintf(stderr, "FAIL: 1024-client throughput is %.1f%% of the 16-client point (< 85%%)\n",
                 100.0 * ratio1k);
    ok = false;
  }
  if (copy_bytes != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu reply payload bytes were memcpy'd — the read data path must be "
                 "zero-copy\n",
                 static_cast<unsigned long long>(copy_bytes));
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "PASS: throughput holds at %.1f%% (256) / %.1f%% (1024) of the 16-client point, "
      "0 reply copy bytes\n",
      100.0 * ratio256, 100.0 * ratio1k);
  return 0;
}
