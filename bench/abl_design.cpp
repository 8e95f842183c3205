// Ablations of the design choices called out in DESIGN.md (paper Sec. IV):
//
//   1. load balancing      — balanced worker batches vs greedy grabbing
//   2. multiplexing depth  — tasks per event-loop pass
//   3. BML pool size       — staging memory budget vs throughput
//   4. cut-through chunk   — forwarding buffer size for the baselines
//
// All at 64 CNs, 1 MiB messages (the paper's heaviest single-pset point).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iofwd;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto base_cfg = bgp::MachineConfig::intrepid();

  wl::StreamParams p;
  p.cns_per_pset = 64;
  p.iterations = args.iters(400);

  // 1. Load-balancing heuristic.
  {
    analysis::FigureReport rep("abl_load_balance",
                               "Ablation: balanced batches vs greedy dequeue", "CNs");
    for (int ncn : {8, 16, 32, 64}) {
      wl::StreamParams q = p;
      q.cns_per_pset = ncn;
      proto::ForwarderConfig on;
      on.balanced_batches = true;
      proto::ForwarderConfig off;
      off.balanced_batches = false;
      rep.add(std::to_string(ncn), "balanced",
              wl::run_stream(proto::Mechanism::zoid_sched_async, base_cfg, on, q).throughput_mib_s);
      rep.add(std::to_string(ncn), "greedy",
              wl::run_stream(proto::Mechanism::zoid_sched_async, base_cfg, off, q).throughput_mib_s);
    }
    analysis::emit(rep);
  }

  // 2. Multiplexing depth.
  {
    analysis::FigureReport rep("abl_multiplex", "Ablation: event-loop multiplexing depth",
                               "depth");
    for (int d : {1, 2, 4, 8, 16, 32}) {
      proto::ForwarderConfig fc;
      fc.multiplex_depth = d;
      rep.add(std::to_string(d), "ZOID+sched+async",
              wl::run_stream(proto::Mechanism::zoid_sched_async, base_cfg, fc, p).throughput_mib_s);
    }
    analysis::emit(rep);
  }

  // 3. BML pool size.
  {
    analysis::FigureReport rep("abl_bml_size", "Ablation: BML staging-memory budget",
                               "bml");
    for (std::uint64_t mb : {4ull, 16ull, 64ull, 256ull, 1024ull}) {
      proto::ForwarderConfig fc;
      fc.bml_bytes = mb << 20;
      auto r = wl::run_stream(proto::Mechanism::zoid_sched_async, base_cfg, fc, p);
      rep.add(std::to_string(mb) + "MiB", "throughput", r.throughput_mib_s);
      rep.add(std::to_string(mb) + "MiB", "staging blocks",
              static_cast<double>(r.fwd_metrics.counter("fwd.bml_blocked")));
    }
    analysis::emit(rep);
  }

  // 4. Cut-through chunk size for the synchronous baselines.
  {
    analysis::FigureReport rep("abl_chunk", "Ablation: forwarding buffer (chunk) size, ZOID",
                               "chunk");
    for (std::uint64_t kb : {64ull, 128ull, 256ull, 512ull, 1024ull}) {
      auto cfg = base_cfg;
      cfg.forward_chunk_bytes = kb << 10;
      rep.add(std::to_string(kb) + "KiB", "ZOID",
              wl::run_stream(proto::Mechanism::zoid, cfg, {}, p).throughput_mib_s);
    }
    analysis::emit(rep);
  }
  return 0;
}
