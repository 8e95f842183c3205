#include "wl/madbench.hpp"

#include <cassert>
#include <memory>
#include <vector>

#include "bgp/machine.hpp"
#include "sim/sync.hpp"

namespace iofwd::wl {

namespace {

struct Shared {
  std::unique_ptr<sim::SimSemaphore> read_gate;
  std::unique_ptr<sim::SimSemaphore> write_gate;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

// One MADbench2 process: S (writes), W (read+write interleaved), C (reads).
// The shared file is striped: block index derives from the byte offset so
// successive ops hit successive FSNs.
sim::Proc<void> mad_process(bgp::Machine& machine, proto::Forwarder& fwd, int rank,
                            int global_rank, const MadbenchParams& p, Shared& sh) {
  auto& eng = machine.engine();
  const std::uint64_t op_bytes = p.bytes_per_op();
  const int nprocs = p.nodes;
  const int fd = 100 + rank;
  (void)co_await fwd.open(rank, fd);

  const int s_end = p.n_matrices / 4;          // S phase: writes
  const int w_end = s_end + p.n_matrices / 2;  // W phase: read/write alternating

  for (int m = 0; m < p.n_matrices; ++m) {
    if (p.busywork_ns_per_op > 0) co_await sim::Delay{eng, p.busywork_ns_per_op};

    const bool is_read = (m >= w_end) || (m >= s_end && (m - s_end) % 2 == 1);
    // Contiguous shared-file layout: matrix m, this rank's slab.
    const std::uint64_t offset =
        (static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(nprocs) +
         static_cast<std::uint64_t>(global_rank)) *
        op_bytes;
    proto::SinkTarget st;
    st.kind = proto::SinkTarget::Kind::storage;
    st.block = offset / p.stripe_bytes;

    if (is_read) {
      co_await sh.read_gate->acquire();
      (void)co_await fwd.read(rank, fd, op_bytes, st);
      sh.read_gate->release();
      ++sh.reads;
    } else {
      co_await sh.write_gate->acquire();
      (void)co_await fwd.write(rank, fd, op_bytes, st);
      sh.write_gate->release();
      ++sh.writes;
    }
  }
  (void)co_await fwd.close(rank, fd);
}

sim::Proc<void> run_all(bgp::Machine& machine,
                        std::vector<std::unique_ptr<proto::Forwarder>>& fwds,
                        const MadbenchParams& p, Shared& sh) {
  auto& eng = machine.engine();
  std::vector<sim::Proc<void>> procs;
  const int cns_per_pset = machine.config().cns_per_pset;
  for (int g = 0; g < p.nodes; ++g) {
    const int pset = g / cns_per_pset;
    const int rank = g % cns_per_pset;
    procs.push_back(
        mad_process(machine, *fwds[static_cast<std::size_t>(pset)], rank, g, p, sh));
  }
  co_await sim::when_all(eng, std::move(procs));
  for (auto& f : fwds) co_await f->drain();
  for (auto& f : fwds) f->shutdown();
}

}  // namespace

MadbenchResult run_madbench(proto::Mechanism m, bgp::MachineConfig machine_cfg,
                            const proto::ForwarderConfig& fwd_cfg, const MadbenchParams& params) {
  assert(params.nodes % machine_cfg.cns_per_pset == 0 &&
         "nodes must be a whole number of psets");
  machine_cfg.num_psets = params.nodes / machine_cfg.cns_per_pset;

  sim::Engine eng;
  bgp::Machine machine(eng, machine_cfg);

  Shared sh;
  const int readers = std::max(1, params.nodes / std::max(1, params.rmod));
  const int writers = std::max(1, params.nodes / std::max(1, params.wmod));
  sh.read_gate = std::make_unique<sim::SimSemaphore>(eng, readers);
  sh.write_gate = std::make_unique<sim::SimSemaphore>(eng, writers);

  proto::RunMetrics metrics;
  std::vector<std::unique_ptr<proto::Forwarder>> fwds;
  for (int p = 0; p < machine.num_psets(); ++p) {
    fwds.push_back(proto::make_forwarder(m, machine, machine.pset(p), metrics, fwd_cfg));
  }

  eng.spawn(run_all(machine, fwds, params, sh));
  eng.run();

  MadbenchResult r;
  r.bytes = metrics.bytes_delivered;
  r.elapsed_s = sim::to_seconds(metrics.last_delivery);
  r.throughput_mib_s = metrics.throughput_mib_s(0, metrics.last_delivery);
  r.reads = sh.reads;
  r.writes = sh.writes;
  r.fwd_metrics = proto::merged_metrics(fwds);
  return r;
}

}  // namespace iofwd::wl
