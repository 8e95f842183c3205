// In-situ data filtering on the I/O node — the paper's stated future work
// (Sec. VII): "offload data filtering onto the I/O forwarding nodes in
// order to reduce the amount of data written to storage as well as to
// facilitate in situ analytics."
//
// A "simulation" thread writes full-resolution checkpoints of a decaying
// 2-D Gaussian field; the ION applies a filter chain on its (otherwise
// underutilized) cores:
//   1. MomentsFilter    — live min/max/mean of every checkpoint (analytics)
//   2. DownsampleFilter — stores the field at 1/4 resolution
// so storage receives a quarter of the bytes while the application still
// writes full resolution and the operator still sees full-resolution stats.
//
//   $ ./insitu_filtering
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "rt/client.hpp"
#include "rt/server.hpp"

using namespace iofwd;

int main() {
  constexpr int kGrid = 256;          // 256x256 doubles per checkpoint
  constexpr int kCheckpoints = 10;

  // ION server with the filter chain installed, filtered writes staged in a
  // 4 MiB burst buffer that coalesces them into large backend writes.
  auto mem = std::make_unique<rt::MemBackend>();
  auto* mem_raw = mem.get();
  rt::ServerConfig cfg;
  cfg.bb_bytes = 4u << 20;
  rt::IonServer server(std::move(mem), cfg);

  rt::FilterChain chain;
  auto moments = std::make_shared<rt::MomentsFilter>();
  chain.add(moments);
  chain.add(std::make_shared<rt::DownsampleFilter>(/*stride=*/4, /*element_bytes=*/8));
  server.set_filter_chain(std::move(chain));

  auto [se, ce] = rt::InProcTransport::make_pair();
  server.serve(std::move(se));
  rt::Client client(std::move(ce));

  if (!client.open(1, "field.dat").is_ok()) return 1;

  std::vector<double> field(kGrid * kGrid);
  std::vector<std::byte> payload(field.size() * sizeof(double));
  std::uint64_t offset = 0;

  for (int step = 0; step < kCheckpoints; ++step) {
    // A Gaussian blob decaying over time.
    const double amp = 100.0 * std::exp(-0.3 * step);
    for (int y = 0; y < kGrid; ++y) {
      for (int x = 0; x < kGrid; ++x) {
        const double dx = (x - kGrid / 2) / 32.0;
        const double dy = (y - kGrid / 2) / 32.0;
        field[static_cast<std::size_t>(y) * kGrid + x] = amp * std::exp(-(dx * dx + dy * dy));
      }
    }
    std::memcpy(payload.data(), field.data(), payload.size());
    if (!client.write(1, offset, payload).is_ok()) return 1;
    offset += payload.size();

    if (!client.fsync(1).is_ok()) return 1;  // let this checkpoint land
    const auto m = moments->moments();
    std::printf("step %2d: field max %7.3f  mean %6.3f  (in-situ, full resolution)\n", step,
                m.max, m.mean());
  }
  if (!client.close(1).is_ok()) return 1;

  const obs::Snapshot s = server.metrics();
  const auto filter_in = static_cast<double>(s.counter("server.filter_bytes_in"));
  const auto filter_out = static_cast<double>(s.counter("server.filter_bytes_out"));
  std::printf("\napplication wrote %.2f MiB; storage received %.2f MiB (%.0f%% reduction)\n",
              filter_in / (1 << 20), filter_out / (1 << 20),
              100.0 * (1.0 - filter_out / filter_in));
  std::printf("burst buffer: %llu client writes -> %llu backend writes; stored file: %.2f MiB\n",
              static_cast<unsigned long long>(s.counter("bb.writes_in")),
              static_cast<unsigned long long>(s.counter("bb.backend_writes")),
              static_cast<double>(mem_raw->snapshot("field.dat").size()) / (1 << 20));
  return 0;
}
