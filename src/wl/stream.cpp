#include "wl/stream.hpp"

#include <memory>
#include <vector>

#include "bgp/machine.hpp"
#include "sim/sync.hpp"

namespace iofwd::wl {

namespace {

sim::Proc<void> cn_app(proto::Forwarder& fwd, int cn_id, proto::SinkTarget sink,
                       std::uint64_t bytes, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    (void)co_await fwd.write(cn_id, /*fd=*/-1, bytes, sink);
  }
}

sim::Proc<void> run_all(bgp::Machine& machine,
                        std::vector<std::unique_ptr<proto::Forwarder>>& fwds,
                        const StreamParams& params) {
  auto& eng = machine.engine();
  std::vector<sim::Proc<void>> apps;
  for (int p = 0; p < machine.num_psets(); ++p) {
    for (int c = 0; c < params.cns_per_pset; ++c) {
      proto::SinkTarget sink;
      sink.kind = params.sink;
      if (sink.kind == proto::SinkTarget::Kind::da_memory) {
        const int global_cn = p * machine.config().cns_per_pset + c;
        sink.da_id = params.distribute_das ? global_cn % machine.num_das() : 0;
      }
      apps.push_back(cn_app(*fwds[static_cast<std::size_t>(p)], c, sink, params.message_bytes,
                            params.iterations));
    }
  }
  co_await sim::when_all(eng, std::move(apps));
  // Async staging: wait for the last queued operations to land.
  for (auto& f : fwds) co_await f->drain();
  for (auto& f : fwds) f->shutdown();
}

}  // namespace

StreamResult run_stream(proto::Mechanism m, const bgp::MachineConfig& machine_cfg,
                        const proto::ForwarderConfig& fwd_cfg, const StreamParams& params) {
  sim::Engine eng;
  bgp::Machine machine(eng, machine_cfg);

  proto::RunMetrics metrics;
  std::vector<std::unique_ptr<proto::Forwarder>> fwds;
  fwds.reserve(static_cast<std::size_t>(machine.num_psets()));
  for (int p = 0; p < machine.num_psets(); ++p) {
    auto fc = fwd_cfg;
    if (!params.trace_path.empty() && p == 0) fc.trace_ops = true;
    fwds.push_back(proto::make_forwarder(m, machine, machine.pset(p), metrics, fc));
  }

  eng.spawn(run_all(machine, fwds, params));
  eng.run();

  if (!params.trace_path.empty() && fwds[0]->tracer() != nullptr) {
    (void)fwds[0]->tracer()->write_json(params.trace_path);
  }

  StreamResult r;
  r.metrics = metrics;
  r.elapsed = metrics.last_delivery;
  r.throughput_mib_s = metrics.throughput_mib_s(0, metrics.last_delivery);
  r.fwd_metrics = proto::merged_metrics(fwds);
  r.sim_events = eng.events_processed();
  return r;
}

double max_of_runs(proto::Mechanism m, const bgp::MachineConfig& machine_cfg,
                   const proto::ForwarderConfig& fwd_cfg, const StreamParams& params, int runs) {
  double best = 0;
  for (int i = 0; i < runs; ++i) {
    best = std::max(best, run_stream(m, machine_cfg, fwd_cfg, params).throughput_mib_s);
  }
  return best;
}

}  // namespace iofwd::wl
