// MADbench2-like application benchmark (paper Sec. V-B).
//
// MADbench2 is derived from the MADspec CMB analysis code: it performs
// out-of-core matrix operations requiring successive writes and reads of
// large contiguous data. In the paper's configuration (I/O mode, busy-work
// exponent alpha = 1, RMOD = WMOD = 1, all processes doing I/O):
//
//   * 64 nodes,  NPIX = 4096: per-op size 4096^2*8/64  = 2 MiB,
//     1024 component matrices -> 128 GiB of total I/O;
//   * 256 nodes, NPIX = 8192: per-op size 8192^2*8/256 = 2 MiB,
//     1024 matrices -> 512 GiB.
//
// Our generator reproduces that I/O pattern against the simulated GPFS
// storage: phase S writes the first quarter of the matrices, phase W
// alternates reads and writes over the middle half, phase C reads the last
// quarter — successive large contiguous transfers, mixed directions, every
// process active (matching the total op count and bytes above).
#pragma once

#include <cstdint>

#include "bgp/config.hpp"
#include "proto/forwarder.hpp"

namespace iofwd::wl {

struct MadbenchParams {
  int nodes = 64;           // total compute processes (64 per pset)
  std::uint64_t npix = 4096;
  int n_matrices = 1024;    // component matrices (ops per process)
  // Busy-work: simulated compute between I/O ops (alpha=1 => none).
  sim::SimTime busywork_ns_per_op = 0;
  // Concurrency modulation: only nprocs/rmod readers (wmod writers) do I/O
  // at once; 1 = everyone (the paper's setting).
  int rmod = 1;
  int wmod = 1;
  // GPFS stripe size used to spread blocks across FSNs.
  std::uint64_t stripe_bytes = 4ull << 20;

  [[nodiscard]] std::uint64_t bytes_per_op() const {
    return npix * npix * 8 / static_cast<std::uint64_t>(nodes);
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    return npix * npix * 8 * static_cast<std::uint64_t>(n_matrices);
  }
};

struct MadbenchResult {
  double throughput_mib_s = 0;
  double elapsed_s = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  obs::Snapshot fwd_metrics;  // "fwd.*", merged across psets (proto::merged_metrics)
};

MadbenchResult run_madbench(proto::Mechanism m, bgp::MachineConfig machine_cfg,
                            const proto::ForwarderConfig& fwd_cfg, const MadbenchParams& params);

}  // namespace iofwd::wl
