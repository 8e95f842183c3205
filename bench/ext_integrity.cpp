// Extension experiment: end-to-end integrity overhead gate (DESIGN.md §12).
//
// Protocol v1 checksums every frame. Per 256 KiB write the ION server pays
// one payload CRC32C pass (verify) plus two header CRCs (decode request,
// encode reply); the compute-node client pays the mirror image (stamp +
// encode/decode). The gate budgets the *server-side* cost, because ION CPU
// is what bounds forwarding capacity in the paper's architecture — the
// client stamp burns compute-node cycles, reported here but not gated. The
// bench fails (exit 1) when the budget is blown, so CI gates regressions in
// the CRC kernels:
//
//   1. kernel cost — ns per 256 KiB CRC32C on the dispatched (hardware,
//      when available) path and on the slicing-by-8 software fallback, so
//      the table shows what the negotiation is buying on this machine;
//   2. copy floor — ns per 256 KiB memcpy, the per-byte work every staged
//      write already pays once (the payload lands in a BML lease);
//   3. gate — the server's integrity work per op (1 payload + 2 header CRCs
//      at the dispatched speed) must cost at most kBudgetCopies payload
//      copies. Both sides are tight-loop kernels timed in this process, so
//      the gate moves only when the CRC kernel does: the software fallback
//      (about 24 copies) and a hardware kernel that lost its three-way
//      interleave (about 5) fail it, while the interleaved hardware kernel
//      sits near 2.
//
// An earlier form of the gate divided the same CRC cost by the wall time of
// a forwarded 256 KiB write (budget 3%). That denominator is a slow, noisy
// server op: unchanged code failed 2 runs in 8, and a faster server made
// the share larger. The op times are still measured and shown, with that
// share and the v1-vs-v0 delta, for reference only.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/crc32c.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/wire.hpp"

namespace {

using namespace iofwd;

constexpr double kBudgetCopies = 4.0;
constexpr std::uint64_t kChunk = 256_KiB;

// Wire-path CRC mix per v1 write op, split by machine. Server (ION): verify
// the request payload (1 pass over kChunk), decode the request header and
// encode the reply header (2 passes over kCrcCoverage bytes). Client
// (compute node): stamp the payload, encode the request header, decode the
// reply header.
constexpr int kServerPayloadCrcsPerOp = 1;
constexpr int kServerHeaderCrcsPerOp = 2;
constexpr int kTotalPayloadCrcsPerOp = 2;
constexpr int kTotalHeaderCrcsPerOp = 4;

template <typename F>
double min_ns_per_iter(int reps, int iters, F&& body) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body(i);
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    best = std::min(best, ns / iters);
  }
  return best;
}

double server_ns_per_write(std::uint16_t wire_version, int writes, int reps) {
  double best = 1e18;
  const std::vector<std::byte> chunk(kChunk, std::byte{0x42});
  for (int r = 0; r < reps; ++r) {
    rt::ServerConfig scfg;
    scfg.exec = rt::ExecModel::work_queue_async;
    scfg.max_wire_version = wire_version;
    rt::IonServer server(std::make_unique<rt::MemBackend>(), scfg);
    auto [a, b] = rt::InProcTransport::make_pair();
    server.serve(std::move(a));
    rt::ClientConfig ccfg;
    ccfg.max_wire_version = wire_version;
    rt::Client client(std::move(b), ccfg);
    (void)client.open(1, "bench");
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < writes; ++i) {
      (void)client.write(1, static_cast<std::uint64_t>(i) * kChunk, chunk);
    }
    (void)client.fsync(1);  // barrier: async acks land before the clock stops
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    (void)client.close(1);
    server.stop();
    best = std::min(best, ns / writes);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const int crc_iters = args.quick ? 400 : 4000;
  const int writes = args.iters(2000);
  const int reps = args.quick ? 2 : 3;

  std::vector<std::byte> buf(kChunk);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 131);
  std::byte hdr[rt::FrameHeader::kWireSize] = {};
  volatile std::uint32_t sink = 0;

  // Dispatched path (hardware when the CPU has it, else software).
  const double hw_ns = min_ns_per_iter(reps, crc_iters, [&](int) {
    sink = sink + crc32c(buf.data(), buf.size());
  });
  // Software fallback, always measured so the table shows both dispatches.
  const double sw_ns = min_ns_per_iter(reps, crc_iters, [&](int) {
    sink = sink + crc32c_sw_extend(0, buf.data(), buf.size());
  });
  const double hdr_ns = min_ns_per_iter(reps, crc_iters * 100, [&](int) {
    sink = sink + crc32c(hdr, rt::FrameHeader::kCrcCoverage);
  });
  std::vector<std::byte> dst(kChunk);
  const double copy_ns = min_ns_per_iter(reps, crc_iters, [&](int i) {
    buf[0] = static_cast<std::byte>(i);
    std::memcpy(dst.data(), buf.data(), buf.size());
    asm volatile("" : : "r"(dst.data()) : "memory");  // the copy must happen
  });

  const double op_v1_ns = server_ns_per_write(rt::kProtoVersion, writes, reps);
  const double op_v0_ns = server_ns_per_write(0, writes, reps);

  const double server_integrity_ns =
      kServerPayloadCrcsPerOp * hw_ns + kServerHeaderCrcsPerOp * hdr_ns;
  const double total_integrity_ns =
      kTotalPayloadCrcsPerOp * hw_ns + kTotalHeaderCrcsPerOp * hdr_ns;
  const double copies = server_integrity_ns / copy_ns;
  const double share_pct = 100.0 * server_integrity_ns / op_v1_ns;
  const double total_share_pct = 100.0 * total_integrity_ns / op_v1_ns;
  const double delta_pct = 100.0 * (op_v1_ns - op_v0_ns) / op_v0_ns;

  analysis::DiagTable t("ext_integrity: CRC32C cost on the 256 KiB write path");
  t.add("crc32c dispatch", crc32c_hw_available() ? 1.0 : 0.0,
        std::string("1=hw 0=sw; selected: ") + crc32c_impl());
  t.add("crc32c 256 KiB (dispatched)", hw_ns,
        "ns/pass, " + std::to_string(static_cast<double>(kChunk) / hw_ns) + " GB/s");
  t.add("crc32c 256 KiB (sw fallback)", sw_ns,
        "ns/pass, " + std::to_string(static_cast<double>(kChunk) / sw_ns) + " GB/s");
  t.add("hw/sw speedup", sw_ns / hw_ns, "x (1.0 when no hw dispatch)");
  t.add("crc32c header (52 B)", hdr_ns, "ns/pass");
  t.add("memcpy 256 KiB (copy floor)", copy_ns,
        "ns/pass, " + std::to_string(static_cast<double>(kChunk) / copy_ns) + " GB/s");
  t.add("server integrity / op", server_integrity_ns,
        "ns: 1 payload + 2 header CRCs at dispatched speed");
  t.add("server integrity in copies", copies, "payload copies, budget <= 4 (gated)");
  t.add("server write op (v1, checksummed)", op_v1_ns, "ns/op, best of reps");
  t.add("server write op (v0, unchecked)", op_v0_ns, "ns/op, best of reps");
  t.add("v1 vs v0 wall delta", delta_pct, "%, informational (noisy)");
  t.add("server overhead share", share_pct, "% of v1 op, informational (noisy)");
  t.add("client+server share", total_share_pct,
        "%, informational: adds the compute-node stamp");
  std::fputs(t.render().c_str(), stdout);

  if (copies > kBudgetCopies) {
    std::fprintf(stderr,
                 "FAIL: server integrity work %.2f payload copies > %.1f budget (%s dispatch)\n",
                 copies, kBudgetCopies, crc32c_impl());
    return 1;
  }
  std::printf("PASS: server integrity work %.2f payload copies <= %.1f budget (%s dispatch)\n",
              copies, kBudgetCopies, crc32c_impl());
  return 0;
}
