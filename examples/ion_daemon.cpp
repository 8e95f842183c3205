// ion_daemon: run the I/O forwarding server as a standalone daemon on a
// UNIX-domain socket — the deployment shape of CIOD/ZOID on a real I/O node.
//
//   $ ./ion_daemon /tmp/iofwd.sock [exec=async|queue|thread] [workers=4]
//                  [recv_lanes=0] [root=/tmp/iofwd_data] [bml_mib=256] [bb_mib=0]
//                  [shards=1] [cluster_bb_mib=0]
//                  [downsample=0] [rle=0]
//                  [retry=0] [bml_wait_ms=100] [degraded_high=0]
//                  [degraded_low=0] [bb_stall_ms=100]
//                  [sched=fifo] [sched_quantum_kib=256]
//                  [qos_bytes_per_sec=0] [qos_ops_per_sec=0]
//                  [qos_burst_bytes=0] [qos_burst_ops=0]
//                  [bb_journal=DIR] [bb_journal_fsync=0]
//                  [--trace-out=FILE] [stats_interval_s=0] [flight_ops=256]
//   $ ./ion_daemon tcp:9090 ...          # listen on TCP port instead
//
// Every knob also accepts GNU style (--workers=4) and an IOFWD_<KEY>
// environment fallback (core/flags.hpp). Unknown knobs — command line or
// IOFWD_* environment — are hard errors with a did-you-mean hint: a typoed
// "shardz=4" must never silently run single-sharded.
//
// recv_lanes=N      epoll receiver lanes multiplexing all connections
//                   (DESIGN.md §13); 0 = min(4, hardware threads)
// bb_mib=N          burst-buffer staging cache of N MiB (DESIGN.md §9)
// downsample=K      keep every K-th 8-byte element (in-situ data reduction)
// rle=1             zero-run-length-encode payloads before storage
//
// Cluster knobs (DESIGN.md §14):
// shards=N          run an IonCluster of N IonServer shards instead of one
//                   server. Shard i listens on <socket>.<i> (or tcp port+i)
//                   and stores under <root>/shard<i>; clients route with
//                   cluster::RoutingClient over the same rendezvous map.
// cluster_bb_mib=N  global burst-buffer budget across every shard's cache
//                   (0 = per-shard watermarks only)
//
// Resilience knobs (DESIGN.md §10):
// retry=N           wrap the backend in fault::RetryingBackend, N attempts
// bml_wait_ms=N     bounded BML wait before degraded pass-through (0=block)
// degraded_high=N   queue depth that switches async staging to synchronous
// degraded_low=N    queue depth that switches back (hysteresis)
// bb_stall_ms=N     burst-buffer stall bound before write-through (0=block)
//
// Scheduling / QoS knobs (DESIGN.md §17):
// sched=P           work-queue dispatch policy: fifo (default), prio
//                   (header priority classes), edf (earliest deadline_ms
//                   first), fair (deficit round-robin on bytes per tenant)
// sched_quantum_kib=N  fair policy's per-tenant byte quantum (default 256)
// qos_bytes_per_sec=N  per-tenant byte budget; over-budget writes demote to
//                   synchronous staging (0 = unlimited)
// qos_ops_per_sec=N    per-tenant op budget (0 = unlimited)
// qos_burst_bytes=N / qos_burst_ops=N  bucket caps (0 = one second's rate)
//
// Crash survival knobs (DESIGN.md §16):
// bb_journal=DIR    write-ahead journal for the burst buffer: staged writes
//                   are persisted (CRC-framed) under DIR before they ack, and
//                   replayed when the daemon restarts over the same DIR —
//                   an ION crash loses no acknowledged data. Sharded mode
//                   derives DIR/shard<i> per shard automatically.
// bb_journal_fsync=1  fdatasync each journal append: survives host power
//                   loss, not just a dying daemon (slower; default 0)
//
// Observability knobs (DESIGN.md §11):
// --trace-out=FILE  write a Chrome-trace (Perfetto) JSON of every op on
//                   shutdown: per-op spans on worker-lane tids plus
//                   queue-depth and BML-in-use counter tracks
// stats_interval_s=N  print a one-line metric summary every N seconds
//                   (server.ops, server.bytes_in, server.queue_depth,
//                   server.bml_in_use; summed over shards)
// flight_ops=N      completed-op flight-recorder ring size (0 = off)
// SIGUSR1           dump the full metrics table + the flight-recorder ring
//                   to stdout without stopping the daemon
// SIGINT/SIGTERM    drain, then print server.ops, server.bytes_in/out and
//                   server.deferred_errors (a fleet sums its shards with
//                   obs::merge_sum), the bb.* hit rate, coalesce ratio and
//                   flushed bytes when bb_mib>0, and the full metrics table
//
// Any process may then connect with rt::SocketTransport::connect_unix and
// drive it through rt::Client (see examples/quickstart.cpp for the calls).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "analysis/report.hpp"
#include "cluster/ion_cluster.hpp"
#include "core/flags.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/server.hpp"

using namespace iofwd;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;
void on_signal(int) { g_stop = 1; }
void on_dump(int) { g_dump = 1; }

std::unique_ptr<rt::Listener> bind_addr(const std::string& addr) {
  if (addr.rfind("tcp:", 0) == 0) {
    auto port = static_cast<std::uint16_t>(std::atoi(addr.c_str() + 4));
    auto l = rt::TcpListener::bind(port, "0.0.0.0");
    if (!l.is_ok()) {
      std::fprintf(stderr, "bind %s: %s\n", addr.c_str(), l.status().to_string().c_str());
      return nullptr;
    }
    std::printf("listening on tcp port %u\n", l.value()->port());
    return std::move(l).value();
  }
  auto l = rt::UnixListener::bind(addr);
  if (!l.is_ok()) {
    std::fprintf(stderr, "bind %s: %s\n", addr.c_str(), l.status().to_string().c_str());
    return nullptr;
  }
  return std::move(l).value();
}

// Shard i of a cluster listens next to the single-server address: a ".<i>"
// socket suffix, or tcp base port + i.
std::string shard_addr(const std::string& base, int shard) {
  if (base.rfind("tcp:", 0) == 0) {
    return "tcp:" + std::to_string(std::atoi(base.c_str() + 4) + shard);
  }
  return base + "." + std::to_string(shard);
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parser args(argc, argv);
  if (args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: %s <socket-path> [exec=async|queue|thread] [workers=N] "
                 "[recv_lanes=N] [root=DIR] [bml_mib=N] [bb_mib=N] [shards=N] "
                 "[cluster_bb_mib=N] [bb_journal=DIR] [bb_journal_fsync=0|1] "
                 "[sched=fifo|prio|edf|fair] [sched_quantum_kib=N] "
                 "[qos_bytes_per_sec=N] [qos_ops_per_sec=N] "
                 "[--trace-out=FILE] [stats_interval_s=N] [flight_ops=N]\n",
                 argv[0]);
    return 2;
  }
  const std::string sock_path = args.positional(0);
  const std::string exec = args.get("exec", "async");
  const std::string root = args.get("root", "/tmp/iofwd_data");
  const std::string trace_out = args.get("trace_out", "");
  const int stats_interval_s = args.get_int("stats_interval_s", 0);
  const int shards = args.get_int("shards", 1);
  const std::uint64_t cluster_bb_mib = args.get_u64("cluster_bb_mib", 0);

  // One registry for every layer: the server, its burst buffer, and the
  // retry decorator all record under their own prefix, so a single snapshot
  // (SIGUSR1, ticker, shutdown) covers the whole daemon. Sharded mode swaps
  // this for cluster-owned per-shard registries merged on snapshot.
  obs::MetricRegistry registry;
  obs::RuntimeTracer tracer;

  rt::ServerConfig cfg;
  cfg.workers = args.get_int("workers", 4);
  cfg.recv_lanes = args.get_int("recv_lanes", 0);
  cfg.bml_bytes = args.get_u64("bml_mib", 256) << 20;
  cfg.bb_bytes = args.get_u64("bb_mib", 0) << 20;
  if (exec == "thread") {
    cfg.exec = rt::ExecModel::thread_per_client;
  } else if (exec == "queue") {
    cfg.exec = rt::ExecModel::work_queue;
  } else {
    cfg.exec = rt::ExecModel::work_queue_async;
  }
  cfg.bb_journal_dir = args.get("bb_journal", "");
  cfg.bb_journal_fsync = args.get_int("bb_journal_fsync", 0) != 0;
  cfg.bml_wait_ms = static_cast<std::uint32_t>(args.get_int("bml_wait_ms", 100));
  cfg.bb_max_stall_ms = static_cast<std::uint32_t>(args.get_int("bb_stall_ms", 100));
  cfg.degraded_high_watermark = args.get_u64("degraded_high", 0);
  cfg.degraded_low_watermark = args.get_u64("degraded_low", 0);
  const std::string sched = args.get("sched", "fifo");
  if (auto pol = rt::parse_sched_policy(sched)) {
    cfg.sched = *pol;
  } else {
    std::fprintf(stderr, "%s: error: sched=%s (want fifo|prio|edf|fair)\n", argv[0],
                 sched.c_str());
    return 2;
  }
  cfg.sched_quantum_bytes = args.get_u64("sched_quantum_kib", 256) << 10;
  cfg.qos.bytes_per_sec = args.get_u64("qos_bytes_per_sec", 0);
  cfg.qos.ops_per_sec = args.get_u64("qos_ops_per_sec", 0);
  cfg.qos.burst_bytes = args.get_u64("qos_burst_bytes", 0);
  cfg.qos.burst_ops = args.get_u64("qos_burst_ops", 0);
  cfg.flight_recorder_ops = static_cast<std::size_t>(args.get_int("flight_ops", 256));
  if (!trace_out.empty()) cfg.tracer = &tracer;

  const int retry = args.get_int("retry", 0);
  const int stride = args.get_int("downsample", 0);
  const bool rle = args.get_flag("rle");

  // Every knob has been queried; anything left over is a typo and the run
  // must not start half-configured.
  if (!args.check_strict(argv[0])) return 2;
  if (shards < 1) {
    std::fprintf(stderr, "%s: error: shards=%d (need >= 1)\n", argv[0], shards);
    return 2;
  }

  const auto make_backend = [&](const std::string& dir,
                                obs::MetricRegistry* reg) -> std::unique_ptr<rt::IoBackend> {
    std::unique_ptr<rt::IoBackend> backend = std::make_unique<rt::FileBackend>(dir);
    if (retry > 0) {
      fault::RetryPolicy policy;
      policy.max_attempts = retry;
      policy.registry = reg;  // "retry.*" lands in the shared snapshot
      backend = std::make_unique<fault::RetryingBackend>(std::move(backend), policy);
    }
    return backend;
  };
  const auto make_filters = [&] {
    rt::FilterChain filters;
    if (stride > 1) filters.add(std::make_shared<rt::DownsampleFilter>(stride));
    if (rle) filters.add(std::make_shared<rt::ZeroRleFilter>());
    return filters;
  };

  // Build either the classic single server or an IonCluster fleet; both
  // expose the same metrics() snapshot surface to the loop below.
  std::unique_ptr<rt::IonServer> server;
  std::unique_ptr<cluster::IonCluster> fleet;
  if (shards > 1) {
    cluster::IonClusterConfig ccfg;
    ccfg.shards = shards;
    ccfg.server = cfg;  // per-shard registries are cluster-owned
    ccfg.cluster_bb_bytes = cluster_bb_mib << 20;
    fleet = std::make_unique<cluster::IonCluster>(
        [&](int i) { return make_backend(root + "/shard" + std::to_string(i), nullptr); },
        ccfg);
  } else {
    cfg.registry = &registry;
    server = std::make_unique<rt::IonServer>(make_backend(root, &registry), cfg);
    if (auto filters = make_filters(); !filters.empty()) {
      server->set_filter_chain(std::move(filters));
    }
  }

  const auto snapshot = [&] { return fleet ? fleet->metrics() : registry.snapshot(); };
  const auto sum_counter = [&](const obs::Snapshot& snap, const std::string& name) {
    if (!fleet) return snap.counter(name);
    std::uint64_t sum = 0;
    for (int i = 0; i < shards; ++i) {
      sum += snap.counter("cluster.shard." + std::to_string(i) + "." + name);
    }
    return sum;
  };
  const auto sum_gauge = [&](const obs::Snapshot& snap, const std::string& name) {
    if (!fleet) return snap.gauge(name);
    std::int64_t sum = 0;
    for (int i = 0; i < shards; ++i) {
      sum += snap.gauge("cluster.shard." + std::to_string(i) + "." + name);
    }
    return sum;
  };
  const auto dump_observability = [&] {
    std::fputs(analysis::metrics_table(snapshot(), fleet ? "ion_daemon cluster metrics"
                                                         : "ion_daemon metrics")
                   .render()
                   .c_str(),
               stdout);
    if (server) {
      if (const obs::FlightRecorder* fr = server->flight_recorder()) {
        std::fputs(fr->dump().c_str(), stdout);
      }
    }
    std::fflush(stdout);
  };

  // Install the handlers before serving starts so a signal racing startup
  // still lands on a clean shutdown path instead of the default handler.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR1, on_dump);

  if (fleet) {
    for (int i = 0; i < shards; ++i) {
      if (auto filters = make_filters(); !filters.empty()) {
        fleet->shard(i).set_filter_chain(std::move(filters));
      }
      auto listener = bind_addr(shard_addr(sock_path, i));
      if (!listener) return 1;
      fleet->serve_listener(i, std::move(listener));
    }
  } else {
    auto listener = bind_addr(sock_path);
    if (!listener) return 1;
    server->serve_listener(std::move(listener));
  }

  char lanes[16];
  if (cfg.recv_lanes > 0) {
    std::snprintf(lanes, sizeof(lanes), "%d", cfg.recv_lanes);
  } else {
    std::snprintf(lanes, sizeof(lanes), "auto");
  }
  std::printf(
      "ion_daemon listening on %s (shards=%d, exec=%s, workers=%d, recv_lanes=%s, root=%s, "
      "bb=%llu MiB%s%s%s)\n",
      sock_path.c_str(), shards, rt::to_string(cfg.exec), cfg.workers, lanes, root.c_str(),
      static_cast<unsigned long long>(cfg.bb_bytes >> 20),
      cluster_bb_mib > 0 ? (", cluster_bb=" + std::to_string(cluster_bb_mib) + " MiB").c_str()
                         : "",
      cfg.bb_journal_dir.empty()
          ? ""
          : (", journal=" + cfg.bb_journal_dir + (cfg.bb_journal_fsync ? " (fsync)" : ""))
                .c_str(),
      trace_out.empty() ? "" : ", tracing");

  // Main loop: poll the signal flags (a flight-recorder dump must run on
  // this thread, not in the handler) and run the periodic stats ticker.
  auto last_tick = std::chrono::steady_clock::now();
  std::uint64_t last_ops = 0;
  std::uint64_t last_bytes = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_dump != 0) {
      g_dump = 0;
      dump_observability();
    }
    if (stats_interval_s > 0 &&
        std::chrono::steady_clock::now() - last_tick >= std::chrono::seconds(stats_interval_s)) {
      last_tick = std::chrono::steady_clock::now();
      const auto snap = snapshot();
      const std::uint64_t ops = sum_counter(snap, "server.ops");
      const std::uint64_t bytes = sum_counter(snap, "server.bytes_in");
      std::printf("[stats] ops=%llu (+%llu) in=%.1f MiB (+%.1f) queue=%lld bml=%.1f MiB\n",
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(ops - last_ops),
                  static_cast<double>(bytes) / (1 << 20),
                  static_cast<double>(bytes - last_bytes) / (1 << 20),
                  static_cast<long long>(sum_gauge(snap, "server.queue_depth")),
                  static_cast<double>(sum_gauge(snap, "server.bml_in_use")) / (1 << 20));
      std::fflush(stdout);
      last_ops = ops;
      last_bytes = bytes;
    }
  }

  // Drain first: stop() quiesces workers and flushes every burst buffer, so
  // the counts below include everything that was still in flight. A fleet's
  // shutdown line sums its shards' snapshots.
  std::printf("\nsignal received, draining...\n");
  if (fleet) {
    fleet->stop();
  } else {
    server->stop();
  }

  obs::Snapshot s;
  if (fleet) {
    for (int i = 0; i < shards; ++i) obs::merge_sum(s, fleet->shard(i).metrics());
  } else {
    s = server->metrics();
  }
  std::printf("shut down: %llu ops, %.1f MiB in, %.1f MiB out, %llu deferred errors\n",
              static_cast<unsigned long long>(s.counter("server.ops")),
              static_cast<double>(s.counter("server.bytes_in")) / (1 << 20),
              static_cast<double>(s.counter("server.bytes_out")) / (1 << 20),
              static_cast<unsigned long long>(s.counter("server.deferred_errors")));
  if (cfg.bb_bytes > 0 && !fleet) {
    std::printf("burst buffer: %.0f%% hit rate, %.1fx coalesce, %.1f MiB flushed\n",
                100.0 * analysis::bb_hit_rate(s), analysis::bb_coalesce_ratio(s),
                static_cast<double>(s.counter("bb.flushed_bytes")) / (1 << 20));
  }
  if (fleet) {
    if (const cluster::ClusterBbBudget* budget = fleet->budget()) {
      std::printf("cluster bb budget: %.1f MiB peak of %.1f MiB, %llu denials\n",
                  static_cast<double>(budget->staged_high_water()) / (1 << 20),
                  static_cast<double>(budget->capacity()) / (1 << 20),
                  static_cast<unsigned long long>(budget->denials()));
    }
  }
  dump_observability();

  if (!trace_out.empty()) {
    if (Status st = tracer.write_json(trace_out); !st.is_ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.to_string().c_str());
    } else {
      std::printf("[trace] %s (%zu events)\n", trace_out.c_str(), tracer.event_count());
    }
  }
  return 0;
}
