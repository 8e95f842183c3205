// Forwarding benchmark: closed-loop workloads against an in-process
// rt::IonServer, four client threads, one rt::Client each on its own AF_UNIX
// socketpair, one op in flight per client (a compute-node process blocked in
// a POSIX call).
//
//   fwdbench --workload small_write|ckpt_burst|mixed_rw --seed N --seconds S
//            --trace 0|1 --work-dir DIR --out-dir DIR [--commit ID]
//            [--src-digest HEX]
//
// A run repeats rounds until --seconds is spent. Each round builds a fresh
// server (set-up), runs the workload's timed phase, and verifies every byte
// it wrote. With --trace 0 it prints the end-to-end metrics; with --trace 1
// it alternates untraced and traced rounds and prints per-layer metrics,
// taken outside-in from the stream and backend taps (wrappers.hpp) and the
// server's metric registry, plus the tracing overhead. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/crc32c.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/transport.hpp"
#include "wrappers.hpp"

namespace {

using namespace iofwd;
using fwdbench::BackendEvent;
using fwdbench::ClientOp;
using fwdbench::ConnTrace;
using fwdbench::now_ns;
using fwdbench::OpKind;

constexpr int kClients = 4;
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workload definitions. Ops per descriptor is a property of the workload,
// never a timed duration, so per-descriptor state grows the same way on
// every host.
// ---------------------------------------------------------------------------

enum class Workload { small_write, ckpt_burst, mixed_rw };

struct Spec {
  Workload w;
  const char* name;
  std::size_t op_bytes;
  std::uint32_t pool_blocks;    // distinct payload blocks per client
  std::uint32_t region_blocks;  // small_write/mixed_rw: blocks per client file
  std::uint32_t timed_writes;   // small_write/mixed_rw: timed writes per descriptor
  std::uint32_t steps;          // ckpt_burst: timed checkpoint steps per round
  std::uint32_t file_blocks;    // ckpt_burst: blocks in one step file
};

// small_write's region (16 MiB per client) is far larger than the staged
// backlog one client builds up (the whole queue peaks at a few hundred ops),
// so two writes to one block are never in flight together: overlapping
// staged writes may complete in either order, which would make the
// read-back check depend on scheduling.
constexpr Spec kSmallWrite{Workload::small_write, "small_write", 4096, 64, 4096, 20000, 0, 0};
constexpr Spec kCkptBurst{Workload::ckpt_burst, "ckpt_burst", 256 * 1024, 8, 0, 0, 4, 1024};
constexpr Spec kMixedRw{Workload::mixed_rw, "mixed_rw", 64 * 1024, 16, 128, 8000, 0, 0};

// mixed_rw: every kFsyncEvery-th op is an fsync, every kReadEvery-th a read
// of the block written two ops earlier. On mixed_rw and ckpt_burst an fsync
// commit costs kCommitLatency (SlowFsyncBackend).
constexpr std::uint32_t kFsyncEvery = 64;
constexpr std::uint32_t kReadEvery = 4;
constexpr std::chrono::microseconds kCommitLatency{2000};

// Set-up writes the per-client regions in chunks of this size.
constexpr std::size_t kFillBytes = 256 * 1024;

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out_dir;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fwdbench: %s\nusage: fwdbench --workload small_write|ckpt_burst|mixed_rw "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
               "[--commit ID] [--src-digest HEX]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      for (const Spec* s : {&kSmallWrite, &kCkptBurst, &kMixedRw}) {
        if (v == s->name) a.spec = s;
      }
      if (a.spec == nullptr) usage(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--src-digest") {
      a.src_digest = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.spec == nullptr) usage("--workload is required");
  if (a.work_dir.empty() || a.out_dir.empty()) usage("--work-dir and --out-dir are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Per-round results
// ---------------------------------------------------------------------------

struct Window {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t client_cpu_ns = 0;  // CPU the client threads used, together
};

// CPU time of the calling thread or of the whole process, in ns.
std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Round {
  bool traced = false;
  double setup_s = 0;
  // Timed windows: every client's last op (fsync + close) has returned.
  std::vector<Window> windows;
  double timed_s = 0;
  std::uint64_t timed_ops = 0;
  std::uint64_t timed_writes = 0;
  std::uint64_t timed_user_bytes = 0;  // payload written + read in the windows
  std::uint64_t round_write_bytes = 0;  // payload written in the whole round
  double cpu_us = 0;                    // process CPU over the windows
  double client_cpu_us = 0;             // the client threads' share of cpu_us
  // Server CPU and ops served from the start of the timed phase to the end
  // of the round's read-back, so work the server defers past a window
  // (bb flushing, journal retires) is still counted.
  double ion_cpu_us = 0;
  std::uint64_t ion_ops = 0;
  double ctxsw = 0;
  std::map<std::string, std::uint64_t> counter_delta;  // registry, over the windows
  obs::Snapshot end;                                   // registry at round end
  std::vector<double> write_us;  // timed writes, client-observed
  std::vector<double> read_us;   // timed reads (mixed_rw) or the read-back pass
  std::vector<double> drift;     // quarter drift per descriptor
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks; any entry fails the run
  std::vector<std::uint32_t> digests;  // backend bytes, compared across rounds
  // Traced rounds only.
  std::vector<std::unique_ptr<ConnTrace>> traces;
  std::vector<BackendEvent> backend;
  std::uint64_t journal_bytes = 0;
};

void note_error(Round& r, std::string msg) {
  if (r.errors.size() < 20) r.errors.push_back(std::move(msg));
}

// ---------------------------------------------------------------------------
// One client: issues forwarded calls, times them, verifies reads.
// ---------------------------------------------------------------------------

struct Worker {
  int id = 0;
  rt::Client* cl = nullptr;
  ConnTrace* tr = nullptr;  // null in untraced rounds
  std::vector<std::byte>* pool = nullptr;
  std::size_t block = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_ops = 0;
  std::uint64_t timed_writes = 0;
  std::uint64_t timed_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<std::string> errors;

  std::span<std::byte> pool_block(std::uint32_t p) {
    return {pool->data() + static_cast<std::size_t>(p) * block, block};
  }

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back("client " + std::to_string(id) + ": " + what);
  }

  // Runs one forwarded call; timed calls are traced and counted.
  template <class F>
  auto call(bool timed, OpKind kind, int fd, std::uint64_t off, std::uint64_t bytes,
            double* lat_us, F&& f) {
    ++attempted;
    const std::int64_t t0 = now_ns();
    if (timed && tr != nullptr) tr->begin_op(kind, fd, off, bytes, t0);
    auto r = f();
    const std::int64_t t1 = now_ns();
    if (timed && tr != nullptr) tr->end_op(t1);
    if (timed) ++timed_ops;
    if (lat_us != nullptr) *lat_us = static_cast<double>(t1 - t0) / 1e3;
    return r;
  }

  void open(int fd, const std::string& path, bool timed) {
    Status st = call(timed, OpKind::open, fd, 0, 0, nullptr, [&] { return cl->open(fd, path); });
    if (!st.is_ok()) fail("open " + path + ": " + st.to_string());
  }

  // Writes pool block p, stamped (id, op), at `off`.
  void write(int fd, std::uint64_t off, std::uint32_t p, std::uint64_t op, bool timed) {
    std::span<std::byte> data = pool_block(p);
    fwdbench::stamp(data, static_cast<std::uint64_t>(id), op);
    double us = 0;
    Status st = call(timed, OpKind::write, fd, off, data.size(), &us,
                     [&] { return cl->write(fd, off, data); });
    write_bytes += data.size();
    if (timed) {
      write_us.push_back(us);
      ++timed_writes;
      timed_bytes += data.size();
    }
    if (!st.is_ok()) fail("write: " + st.to_string());
  }

  // Reads `block` bytes at `off` and checks them against pool block p as
  // stamped by (writer, op). Latency goes to read_us either way.
  void read_verify(int fd, std::uint64_t off, std::uint32_t p, std::uint64_t writer,
                   std::uint64_t op, bool timed) {
    double us = 0;
    auto r = call(timed, OpKind::read, fd, off, block, &us,
                  [&] { return cl->read(fd, off, block); });
    read_us.push_back(us);
    if (timed) timed_bytes += block;
    if (!r.is_ok()) {
      fail("read: " + r.status().to_string());
    } else if (!fwdbench::matches(r.value(), pool_block(p), writer, op)) {
      std::uint64_t got_w = 0;
      std::uint64_t got_op = 0;
      if (r.value().size() >= fwdbench::kStampBytes) {
        std::memcpy(&got_w, r.value().data(), 8);
        std::memcpy(&got_op, r.value().data() + 8, 8);
      }
      fail("read of " + std::to_string(r.value().size()) + " bytes at offset " + std::to_string(off) +
           " returned writer " + std::to_string(got_w) + " op " + std::to_string(got_op) +
           ", expected writer " + std::to_string(writer) + " op " + std::to_string(op));
    }
  }

  // Untimed, unverified write (set-up traffic).
  void fill(int fd, std::uint64_t off, std::span<const std::byte> data) {
    Status st = call(false, OpKind::write, fd, off, data.size(), nullptr,
                     [&] { return cl->write(fd, off, data); });
    write_bytes += data.size();
    if (!st.is_ok()) fail("fill: " + st.to_string());
  }

  void fsync(int fd, bool timed) {
    Status st = call(timed, OpKind::fsync, fd, 0, 0, nullptr, [&] { return cl->fsync(fd); });
    if (!st.is_ok()) fail("fsync: " + st.to_string());
  }

  void close(int fd, bool timed) {
    Status st = call(timed, OpKind::close, fd, 0, 0, nullptr, [&] { return cl->close(fd); });
    if (!st.is_ok()) fail("close: " + st.to_string());
  }
};

// Which pool block and op stamp the last write to each block carried.
struct Golden {
  std::uint32_t pool = 0;
  std::uint64_t op = 0;
};

// ---------------------------------------------------------------------------
// The rig: a server, its backend stack and four connected clients.
// ---------------------------------------------------------------------------

struct Inputs {
  std::array<std::vector<std::byte>, kClients> pools;
  // mixed_rw: the order each client writes its blocks in, repeated. A block
  // is rewritten only a full region later, long after the read barriers
  // have retired its previous write: overlapping staged writes to one block
  // may complete in either order, so a shorter distance would make the
  // read-back check depend on scheduling.
  std::array<std::vector<std::uint32_t>, kClients> order;
};

Inputs make_inputs(const Spec& s, std::uint64_t seed) {
  Inputs in;
  for (int c = 0; c < kClients; ++c) {
    in.pools[c] = fwdbench::make_pool(seed, static_cast<std::uint64_t>(c), s.pool_blocks, s.op_bytes);
    if (s.w == Workload::mixed_rw) {
      in.order[c] = fwdbench::make_permutation(seed, 100 + static_cast<std::uint64_t>(c), s.region_blocks);
    }
  }
  return in;
}

class Rig {
 public:
  Rig(const Spec& s, const std::string& round_dir, bool traced, Inputs& in, Round& r)
      : spec_(s), round_(r) {
    std::unique_ptr<rt::IoBackend> backend;
    rt::ServerConfig cfg;
    switch (s.w) {
      case Workload::small_write: {
        auto mem = std::make_unique<rt::MemBackend>();
        mem_ = mem.get();
        backend = std::move(mem);
        break;
      }
      case Workload::mixed_rw: {
        auto mem = std::make_unique<rt::MemBackend>();
        mem_ = mem.get();
        backend = std::make_unique<fwdbench::SlowFsyncBackend>(std::move(mem), kCommitLatency);
        cfg.recv_lanes = 2;
        break;
      }
      case Workload::ckpt_burst:
        data_dir_ = round_dir + "/data";
        backend = std::make_unique<fwdbench::SlowFsyncBackend>(
            std::make_unique<rt::FileBackend>(data_dir_), kCommitLatency);
        cfg.bb_bytes = 512ull << 20;
        cfg.bb_journal_dir = round_dir + "/journal";
        break;
    }
    if (traced) {
      auto tap = std::make_unique<fwdbench::TapBackend>(std::move(backend));
      tap_ = tap.get();
      backend = std::move(tap);
      if (!cfg.bb_journal_dir.empty()) {
        journal_ = std::make_unique<fwdbench::JournalWatch>(cfg.bb_journal_dir);
      }
    }
    server_ = std::make_unique<rt::IonServer>(std::move(backend), cfg);
    for (int c = 0; c < kClients; ++c) {
      auto pair = rt::SocketTransport::make_socketpair();
      if (!pair.is_ok()) {
        note_error(r, "socketpair: " + pair.status().to_string());
        continue;
      }
      auto [srv_end, cli_end] = std::move(pair).value();
      std::unique_ptr<rt::ByteStream> srv = std::move(srv_end);
      std::unique_ptr<rt::ByteStream> cli = std::move(cli_end);
      if (traced) {
        traces_[c] = std::make_unique<ConnTrace>();
        traces_[c]->reserve(60000);
        srv = std::make_unique<fwdbench::ServerTap>(std::move(srv), *traces_[c]);
        cli = std::make_unique<fwdbench::ClientTap>(std::move(cli), *traces_[c]);
      }
      server_->serve(std::move(srv));
      clients_[c] = std::make_unique<rt::Client>(std::move(cli));
      Worker& w = workers_[c];
      w.id = c;
      w.cl = clients_[c].get();
      w.tr = traces_[c].get();
      w.pool = &in.pools[c];
      w.block = s.op_bytes;
    }
  }

  ~Rig() { teardown(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] bool ok() const {
    return std::all_of(clients_.begin(), clients_.end(), [](const auto& c) { return c != nullptr; });
  }
  std::array<Worker, kClients>& workers() { return workers_; }
  [[nodiscard]] const std::string& data_dir() const { return data_dir_; }

  // Runs body(worker) on four threads released together and returns the
  // window from the release to the last worker's return.
  Window parallel(const std::function<void(Worker&)>& body) {
    std::latch go(1);
    std::array<std::int64_t, kClients> ends{};
    std::array<std::int64_t, kClients> cpu{};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        go.wait();
        body(workers_[c]);
        ends[c] = now_ns();
        cpu[c] = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      });
    }
    Window w;
    w.t0 = now_ns();
    go.count_down();
    for (auto& t : threads) t.join();
    w.t1 = *std::max_element(ends.begin(), ends.end());
    for (std::int64_t t : cpu) w.client_cpu_ns += t;
    client_cpu_ns_ += w.client_cpu_ns;
    return w;
  }

  // A timed phase: the window plus registry, CPU and rusage deltas over it.
  void timed(const std::function<void(Worker&)>& body) {
    const obs::Snapshot before = server_->metrics();
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    const std::int64_t cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const Window w = parallel(body);
    const std::int64_t cpu1 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    const obs::Snapshot after = server_->metrics();
    for (auto& tr : traces_) {
      if (tr) tr->idle();
    }
    round_.windows.push_back(w);
    round_.timed_s += static_cast<double>(w.t1 - w.t0) / 1e9;
    round_.cpu_us += static_cast<double>(cpu1 - cpu0) / 1e3;
    round_.client_cpu_us += static_cast<double>(w.client_cpu_ns) / 1e3;
    round_.ctxsw += static_cast<double>((ru1.ru_nvcsw - ru0.ru_nvcsw) + (ru1.ru_nivcsw - ru0.ru_nivcsw));
    for (const auto& [name, v] : after.counters) {
      round_.counter_delta[name] += v - before.counter(name);
    }
  }

  // Brackets the server's share of the process's CPU: the process's CPU
  // minus the client threads' and this thread's.
  struct CpuMark {
    std::int64_t server_ns = 0;
    std::uint64_t ops = 0;
  };
  CpuMark cpu_mark() {
    const std::uint64_t ops = server_->metrics().counter("server.ops");
    return {cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu_ns(CLOCK_THREAD_CPUTIME_ID) - client_cpu_ns_, ops};
  }
  void add_ion_cpu(const CpuMark& from) {
    const CpuMark to = cpu_mark();
    round_.ion_cpu_us += static_cast<double>(to.server_ns - from.server_ns) / 1e3;
    round_.ion_ops += to.ops - from.ops;
  }

  // Stops clients and server, collects counters, runs the round-end checks.
  void finish() {
    Round& r = round_;
    for (Worker& w : workers_) {
      r.attempted += w.attempted;
      r.failed += w.failed;
      r.timed_ops += w.timed_ops;
      r.timed_writes += w.timed_writes;
      r.timed_user_bytes += w.timed_bytes;
      r.round_write_bytes += w.write_bytes;
      r.read_us.insert(r.read_us.end(), w.read_us.begin(), w.read_us.end());
      r.write_us.insert(r.write_us.end(), w.write_us.begin(), w.write_us.end());
      for (auto& e : w.errors) note_error(r, e);
    }
    for (int c = 0; c < kClients; ++c) {
      if (!clients_[c]) continue;
      const obs::Snapshot cs = clients_[c]->registry().snapshot();
      for (const char* k : {"client.integrity.header_crc_errors",
                            "client.integrity.payload_crc_errors",
                            "client.integrity.request_bounces", "client.reconnects"}) {
        if (cs.counter(k) != 0) note_error(r, "client " + std::to_string(c) + ": " + k + " != 0");
      }
    }
    r.end = server_->metrics();
    for (const char* k : {"server.integrity.header_crc_errors", "server.integrity.payload_crc_errors",
                          "server.integrity.frames_rejected", "server.reply.sync_fallback"}) {
      if (r.end.counter(k) != 0) {
        note_error(r, std::string(k) + " = " + std::to_string(r.end.counter(k)));
      }
    }
    std::uint64_t issued = 0;
    for (const Worker& w : workers_) issued += w.attempted;
    if (r.end.counter("server.ops") != issued) {
      note_error(r, "server.ops = " + std::to_string(r.end.counter("server.ops")) +
                        " but the clients issued " + std::to_string(issued));
    }
    if (mem_ != nullptr) {
      for (int c = 0; c < kClients; ++c) {
        const auto bytes = mem_->snapshot(path_of(c));
        r.digests.push_back(crc32c(bytes.data(), bytes.size()));
      }
    }
    teardown();
    if (tap_ != nullptr) r.backend = tap_->take_events();
    if (journal_) r.journal_bytes = journal_->finish();
    for (auto& tr : traces_) {
      if (tr) r.traces.push_back(std::move(tr));
    }
  }

  [[nodiscard]] std::string path_of(int c) const {
    return std::string(spec_.w == Workload::small_write ? "sw" : "mx") + std::to_string(c);
  }

 private:
  void teardown() {
    for (auto& c : clients_) c.reset();
    if (server_) server_->stop();
  }

  const Spec& spec_;
  Round& round_;
  rt::MemBackend* mem_ = nullptr;
  fwdbench::TapBackend* tap_ = nullptr;
  std::string data_dir_;
  std::unique_ptr<fwdbench::JournalWatch> journal_;
  std::array<std::unique_ptr<ConnTrace>, kClients> traces_;  // outlive server and clients
  std::unique_ptr<rt::IonServer> server_;
  std::array<std::unique_ptr<rt::Client>, kClients> clients_;
  std::array<Worker, kClients> workers_;
  std::int64_t client_cpu_ns_ = 0;  // every client thread this rig has run
};

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

void add_drift(Round& r, std::span<const double> lat) {
  if (auto d = fwdbench::quarter_drift(lat)) r.drift.push_back(*d);
}

// small_write: 4 KiB staged writes cycling over a 16 MiB region of each
// client's own file. mixed_rw: 64 KiB writes to seeded blocks of an 8 MiB
// region; every 4th op reads back the block written two ops earlier and
// every 64th is an fsync. Either way one descriptor per client carries the
// whole timed phase, which ends with that descriptor's fsync and close.
void round_per_client_file(const Spec& s, const Inputs& in, Rig& rig, Round& r) {
  const bool mixed = s.w == Workload::mixed_rw;
  const std::uint32_t region = s.region_blocks;
  std::array<std::vector<Golden>, kClients> golden;
  for (auto& g : golden) g.resize(region);

  // Set-up, continued: opens plus a warm-up pass that sizes the region in
  // 256 KiB writes, then an fsync that retires them before timing starts.
  const std::int64_t t_setup = now_ns();
  const std::vector<std::byte> fill(kFillBytes);
  rig.parallel([&](Worker& w) {
    w.open(w.id + 1, rig.path_of(w.id), false);
    for (std::uint64_t off = 0; off < std::uint64_t{region} * s.op_bytes; off += fill.size()) {
      w.fill(w.id + 1, off, fill);
    }
    w.fsync(w.id + 1, false);
  });
  r.setup_s += static_cast<double>(now_ns() - t_setup) / 1e9;

  const Rig::CpuMark cpu0 = rig.cpu_mark();
  rig.timed([&](Worker& w) {
    const int fd = w.id + 1;
    const auto writer = static_cast<std::uint64_t>(w.id);
    std::vector<Golden>& g = golden[w.id];
    std::array<std::uint32_t, kReadEvery> recent{};  // block written by op o, at o % 4
    std::uint64_t stamp_op = 1;
    std::uint32_t writes = 0;
    for (std::uint32_t o = 0; writes < s.timed_writes; ++o) {
      if (mixed && o % kFsyncEvery == kFsyncEvery - 1) {
        w.fsync(fd, true);
      } else if (mixed && o % kReadEvery == kReadEvery - 1) {
        const std::uint32_t b = recent[(o - 2) % kReadEvery];
        w.read_verify(fd, std::uint64_t{b} * s.op_bytes, g[b].pool, writer, g[b].op, true);
      } else {
        const std::uint32_t b = mixed ? in.order[w.id][writes % region] : writes % region;
        const std::uint32_t p = writes % s.pool_blocks;
        w.write(fd, std::uint64_t{b} * s.op_bytes, p, stamp_op, true);
        g[b] = {p, stamp_op};
        recent[o % kReadEvery] = b;
        ++stamp_op;
        ++writes;
      }
    }
    w.fsync(fd, true);
    w.close(fd, true);
  });
  for (Worker& w : rig.workers()) add_drift(r, w.write_us);

  // small_write: untimed golden-byte read-back through a fresh descriptor
  // (mixed_rw already verified every read it timed).
  if (!mixed) {
    rig.parallel([&](Worker& w) {
      const int fd = 101 + w.id;
      w.open(fd, rig.path_of(w.id), false);
      for (std::uint32_t b = 0; b < region; ++b) {
        const Golden& g = golden[w.id][b];
        w.read_verify(fd, std::uint64_t{b} * s.op_bytes, g.pool, static_cast<std::uint64_t>(w.id),
                      g.op, false);
      }
      w.close(fd, false);
    });
  }
  rig.add_ion_cpu(cpu0);
}

// ckpt_burst: each step, four clients write one fresh 256 MiB shared file
// N-to-1 (client c owns blocks c, c+4, c+8, ...), then fsync and close it.
// Set-up includes one untimed warm-up step; each timed step is verified by
// reading the file back through the server and then deleted.
void round_ckpt(const Spec& s, Rig& rig, Round& r, bool digest_files) {
  const std::uint32_t per_client = s.file_blocks / kClients;
  auto step_body = [&](std::uint32_t step) {
    return [&s, step, per_client](Worker& w) {
      const int fd = w.id + 1;
      w.open(fd, "step" + std::to_string(step), step > 0);
      for (std::uint32_t k = 0; k < per_client; ++k) {
        const std::uint64_t blk = std::uint64_t{k} * kClients + static_cast<std::uint64_t>(w.id);
        w.write(fd, blk * s.op_bytes, k % s.pool_blocks, (std::uint64_t{step} << 32) | k, step > 0);
      }
      w.fsync(fd, step > 0);
      w.close(fd, step > 0);
    };
  };
  auto remove_step = [&](std::uint32_t step) {
    std::error_code ec;
    std::filesystem::remove(rig.data_dir() + "/step" + std::to_string(step), ec);
  };

  // Set-up, continued: connect + hello, then the warm-up step.
  const std::int64_t t_setup = now_ns();
  rig.parallel([&](Worker& w) {
    Status st = w.cl->ping();
    if (!st.is_ok()) w.fail("ping: " + st.to_string());
  });
  rig.parallel(step_body(0));
  remove_step(0);
  r.setup_s += static_cast<double>(now_ns() - t_setup) / 1e9;

  const Rig::CpuMark cpu0 = rig.cpu_mark();
  for (std::uint32_t step = 1; step <= s.steps; ++step) {
    std::array<std::size_t, kClients> first{};
    for (Worker& w : rig.workers()) first[w.id] = w.write_us.size();
    rig.timed(step_body(step));
    for (Worker& w : rig.workers()) {
      add_drift(r, std::span<const double>(w.write_us).subspan(first[w.id]));
    }
    if (digest_files) {
      std::ifstream f(rig.data_dir() + "/step" + std::to_string(step), std::ios::binary);
      std::vector<char> buf(1 << 20);
      std::uint32_t crc = 0;
      while (f.read(buf.data(), static_cast<std::streamsize>(buf.size())) || f.gcount() > 0) {
        crc = crc32c_extend(crc, buf.data(), static_cast<std::size_t>(f.gcount()));
      }
      r.digests.push_back(crc);
    }
    rig.parallel([&](Worker& w) {
      const int fd = 101 + w.id;
      w.open(fd, "step" + std::to_string(step), false);
      for (std::uint32_t k = 0; k < per_client; ++k) {
        const std::uint64_t blk = std::uint64_t{k} * kClients + static_cast<std::uint64_t>(w.id);
        w.read_verify(fd, blk * s.op_bytes, k % s.pool_blocks, static_cast<std::uint64_t>(w.id),
                      (std::uint64_t{step} << 32) | k, false);
      }
      w.close(fd, false);
    });
    remove_step(step);
  }
  rig.add_ion_cpu(cpu0);
}

double vm_hwm_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.starts_with("VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

Round run_round(const Args& a, Inputs& in, int index, bool traced) {
  Round r;
  r.traced = traced;
  const std::string dir = a.work_dir + "/round" + std::to_string(index);
  std::filesystem::create_directories(dir);
  {
    const std::int64_t t0 = now_ns();
    Rig rig(*a.spec, dir, traced, in, r);
    r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (rig.ok()) {
      if (a.spec->w == Workload::ckpt_burst) {
        round_ckpt(*a.spec, rig, r, a.trace);
      } else {
        round_per_client_file(*a.spec, in, rig, r);
      }
    }
    rig.finish();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return r;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples;  // what the value was taken over
};

std::string rounds_note(std::size_t n) { return std::to_string(n) + " rounds"; }

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> missing;  // refused percentiles: the run cannot report them

  void add(std::string name, double v, std::string unit, std::string samples) {
    if (!std::isfinite(v)) v = 0;
    metrics.push_back({std::move(name), v, std::move(unit), std::move(samples)});
  }
  void pct(const std::string& name, const std::vector<double>& v, double q, const std::string& unit) {
    if (auto p = fwdbench::percentile(v, q)) {
      add(name, p->value, unit, "n=" + std::to_string(p->n));
    } else {
      missing.push_back(name + " (n=" + std::to_string(v.size()) + ")");
    }
  }
  // The median over rounds of each round's percentile. Pooling the rounds'
  // samples instead lets one round that met host contention set the run's
  // p99: on a 4-vCPU VM, small_write's write_p99_us over five seeds had a
  // quartile spread of 0.35 of its median pooled, 0.15 as the median over
  // rounds.
  void round_pct(const std::string& name, const std::vector<const Round*>& rs,
                 std::vector<double> Round::*samples, double q, const std::string& unit) {
    std::vector<double> per_round;
    std::size_t n = 0;
    for (const Round* r : rs) {
      auto p = fwdbench::percentile(r->*samples, q);
      if (!p) {
        missing.push_back(name + " (n=" + std::to_string((r->*samples).size()) + " in a round)");
        return;
      }
      per_round.push_back(p->value);
      n += p->n;
    }
    add(name, fwdbench::median_of(per_round), unit,
        "median of " + rounds_note(rs.size()) + ", n=" + std::to_string(n));
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Each figure is the median over rounds of that round's value, so a burst
// of host contention during one round does not move the run's figure.
//
// The gated figures are costs that other load on the host moves far less:
// set-up time, the server's CPU per forwarded op, failures and memory. The
// paper's ION is CPU-starved, so its forwarding capacity is its cores
// divided by ion_cpu_us_per_op. Wall-clock rates and latencies
// (wall_clock below) measure the host's scheduler as much as the program
// on a shared 4-vCPU VM: with four busy-looping processes beside it,
// small_write's ops_per_s fell from 29k to 12-18k and its write p99 rose
// from 0.5 to 4 ms, while ion_cpu_us_per_op moved by under 10%.
void end_to_end(const std::vector<const Round*>& rs, std::uint64_t attempted, std::uint64_t failed,
                double rss_mib, Report& rep) {
  std::vector<double> setup, ion;
  for (const Round* r : rs) {
    setup.push_back(r->setup_s);
    ion.push_back(ratio(r->ion_cpu_us, static_cast<double>(r->ion_ops)));
  }
  const std::string rounds = "median of " + rounds_note(rs.size());
  const std::string per_round = rs.empty() ? "" : ", " + std::to_string(rs.front()->ion_ops) + " ops each";
  rep.add("setup_s", fwdbench::median_of(setup), "s", rounds);
  rep.add("ion_cpu_us_per_op", fwdbench::median_of(ion), "us", rounds + per_round);
  rep.add("success_rate", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "ratio", std::to_string(attempted) + " ops attempted");
  rep.add("rss_peak_mib", rss_mib, "MiB", "process peak over the first round");
}

// Client-observed rates and latencies of the timed phase.
void wall_clock(const std::vector<const Round*>& rs, Report& rep) {
  std::vector<double> ops, goodput;
  for (const Round* r : rs) {
    ops.push_back(ratio(static_cast<double>(r->timed_ops), r->timed_s));
    goodput.push_back(ratio(static_cast<double>(r->timed_user_bytes) / kMiB, r->timed_s));
  }
  const std::string rounds = "median of " + rounds_note(rs.size());
  const std::string per_round = rs.empty() ? "" : ", " + std::to_string(rs.front()->timed_ops) + " ops each";
  rep.add("ops_per_s", fwdbench::median_of(ops), "1/s", rounds + per_round);
  rep.add("goodput_mib_s", fwdbench::median_of(goodput), "MiB/s", rounds + per_round);
  rep.round_pct("write_p50_us", rs, &Round::write_us, 0.50, "us");
  rep.round_pct("write_p99_us", rs, &Round::write_us, 0.99, "us");
  rep.round_pct("read_p50_us", rs, &Round::read_us, 0.50, "us");
  rep.round_pct("read_p99_us", rs, &Round::read_us, 0.99, "us");
}

// ---- per-layer, from the taps ---------------------------------------------

struct OpLayers {
  OpKind kind = OpKind::write;
  double encode = 0, send = 0, wait = 0, decode = 0;
  double lane_wake = 0, recv = 0, self = 0, reply_send = 0, reply_wake = 0;
  std::uint32_t reads = 0, would_blocks = 0, writes = 0;
};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Splits each timed op of one connection into its layers. Returns the
// number of ops whose client-side spans do not tile the op.
std::uint64_t split_ops(const ConnTrace& tr, std::vector<OpLayers>& out) {
  auto by_op = [](std::vector<fwdbench::StreamEvent> v) {
    std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) { return a.op < b.op; });
    return v;
  };
  const auto reads = by_op(tr.reads);
  const auto writes = by_op(tr.writes);
  std::size_t ri = 0;
  std::size_t wi = 0;
  std::uint64_t broken = 0;
  for (std::uint32_t k = 0; k < tr.ops.size(); ++k) {
    const ClientOp& c = tr.ops[k];
    const std::size_t r0 = ri;
    while (ri < reads.size() && reads[ri].op == k) ++ri;
    const std::size_t w0 = wi;
    while (wi < writes.size() && writes[wi].op == k) ++wi;
    if (!c.tiles()) {
      ++broken;
      continue;
    }
    OpLayers l;
    l.kind = c.kind;
    l.encode = us(c.t_send0 - c.t_start);
    l.send = us(c.t_send1 - c.t_send0);
    l.wait = us(c.t_hdr - c.t_send1);
    l.decode = us(c.t_end - c.t_hdr);
    const fwdbench::StreamEvent* first_data = nullptr;
    for (std::size_t i = r0; i < ri; ++i) {
      ++l.reads;
      if (reads[i].bytes == 0) ++l.would_blocks;
      l.recv += us(reads[i].t1 - reads[i].t0);
      if (first_data == nullptr && reads[i].bytes > 0) first_data = &reads[i];
    }
    const fwdbench::StreamEvent* first_reply = nullptr;
    for (std::size_t i = w0; i < wi; ++i) {
      ++l.writes;
      l.reply_send += us(writes[i].t1 - writes[i].t0);
      if (first_reply == nullptr && writes[i].bytes > 0) first_reply = &writes[i];
    }
    if (first_data != nullptr) l.lane_wake = std::max(0.0, us(first_data->t0 - c.t_send1));
    if (first_reply != nullptr) l.reply_wake = std::max(0.0, us(c.t_hdr - first_reply->t1));
    if (first_data != nullptr && first_reply != nullptr) {
      double recv_inside = 0;
      for (std::size_t i = r0; i < ri; ++i) {
        if (reads[i].t0 >= first_data->t0 && reads[i].t1 <= first_reply->t0) {
          recv_inside += us(reads[i].t1 - reads[i].t0);
        }
      }
      l.self = std::max(0.0, us(first_reply->t0 - first_data->t0) - recv_inside);
    }
    out.push_back(l);
  }
  return broken;
}

bool in_windows(const std::vector<Window>& ws, std::int64_t t) {
  return std::any_of(ws.begin(), ws.end(), [t](const Window& w) { return t >= w.t0 && t <= w.t1; });
}

template <class F>
std::vector<double> pick(const std::vector<OpLayers>& ops, bool reads_only, F f) {
  std::vector<double> v;
  for (const OpLayers& l : ops) {
    if (l.kind == (reads_only ? OpKind::read : OpKind::write)) v.push_back(f(l));
  }
  return v;
}

void print_self_time_table(const char* workload, const std::vector<OpLayers>& ops) {
  struct Row {
    const char* layer;
    const char* span;
    double OpLayers::*field;
  };
  const Row rows[] = {
      {"rt.client", "client.encode (call -> first request byte)", &OpLayers::encode},
      {"rt.transport", "transport.send (client write_all)", &OpLayers::send},
      {"rt.lane", "lane.wake (last request byte -> first read_some)", &OpLayers::lane_wake},
      {"rt.lane", "lane.recv (server read_some calls)", &OpLayers::recv},
      {"rt.server", "server.self (first read -> first reply writev)", &OpLayers::self},
      {"rt.reply", "reply.send (server writev calls)", &OpLayers::reply_send},
      {"rt.transport", "reply.wake (reply accepted -> client has header)", &OpLayers::reply_wake},
      {"rt.client", "client.decode (header -> return)", &OpLayers::decode},
  };
  std::printf("\nper-layer self time, %s, traced rounds (us per op; %zu ops)\n", workload, ops.size());
  std::printf("  (server-side spans overlap transport.send when a request outgrows the socket buffer,\n"
              "   so the remainder can be negative)\n");
  std::printf("  %-13s %-50s %10s %10s\n", "layer", "span", "mean", "p50");
  double wait = 0;
  double accounted = 0;
  for (const OpLayers& l : ops) {
    wait += l.wait;
    accounted += l.lane_wake + l.recv + l.self + l.reply_send + l.reply_wake;
  }
  for (const Row& row : rows) {
    double sum = 0;
    std::vector<double> v;
    for (const OpLayers& l : ops) {
      sum += l.*row.field;
      v.push_back(l.*row.field);
    }
    std::printf("  %-13s %-50s %10.2f %10.2f\n", row.layer, row.span,
                ratio(sum, static_cast<double>(ops.size())), fwdbench::median_of(v));
  }
  const double n = static_cast<double>(ops.size());
  std::printf("  %-13s %-50s %10.2f %10s\n", "(remainder)", "client.wait minus the server-side spans above",
              ratio(wait - accounted, n), "-");
}

// ---- the Chrome trace (first traced round, first ops of each client) -------

// Enough for one whole ckpt_burst step (open, 256 writes, fsync, close), so
// the burst buffer's flush at fsync shows up under the ops that staged it.
constexpr std::size_t kTraceOpsPerClient = 300;

std::string op_label(std::size_t client, std::size_t op) {
  char b[48];
  std::snprintf(b, sizeof b, "c%zu#%zu", client, op);
  return b;
}

void write_chrome_trace(const std::string& path, const Round& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::int64_t origin = INT64_MAX;
  std::int64_t horizon = 0;
  for (const auto& tr : r.traces) {
    if (tr->ops.empty()) continue;
    origin = std::min(origin, tr->ops.front().t_start);
    const std::size_t last = std::min(tr->ops.size(), kTraceOpsPerClient) - 1;
    horizon = std::max(horizon, tr->ops[last].t_end);
  }
  bool first = true;
  auto span = [&](const char* name, int tid, std::int64_t t0, std::int64_t t1, const std::string& op,
                  const std::string& extra) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":\"%s\"%s}}",
                 first ? "" : ",", name, tid, us(t0 - origin), us(t1 - t0), op.c_str(), extra.c_str());
    first = false;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  // Backend spans link to the client op that last touched (fd, offset).
  std::map<std::pair<int, std::uint64_t>, std::vector<std::pair<std::int64_t, std::string>>> owner;
  for (std::size_t c = 0; c < r.traces.size(); ++c) {
    const ConnTrace& tr = *r.traces[c];
    const int tid = static_cast<int>(c);
    const std::size_t n = std::min(tr.ops.size(), kTraceOpsPerClient);
    for (std::size_t k = 0; k < n; ++k) {
      const ClientOp& o = tr.ops[k];
      const std::string id = op_label(c, k);
      owner[{o.fd, o.kind == OpKind::write ? o.offset : 0}].push_back({o.t_start, id});
      span(fwdbench::op_name(o.kind), tid, o.t_start, o.t_end, id,
           ",\"fd\":" + std::to_string(o.fd) + ",\"offset\":" + std::to_string(o.offset) +
               ",\"bytes\":" + std::to_string(o.bytes));
      span("client.encode", tid, o.t_start, o.t_send0, id, "");
      span("transport.send", tid, o.t_send0, o.t_send1, id, "");
      span("client.wait", tid, o.t_send1, o.t_hdr, id, "");
      span("client.decode", tid, o.t_hdr, o.t_end, id, "");
    }
    for (const auto* events : {&tr.reads, &tr.writes}) {
      const char* name = events == &tr.reads ? "lane.read_some" : "reply.writev";
      for (const auto& e : *events) {
        if (e.op >= n) continue;
        span(name, 10 + tid, e.t0, e.t1, op_label(c, e.op),
             ",\"bytes\":" + std::to_string(e.bytes));
      }
    }
  }
  for (const BackendEvent& e : r.backend) {
    if (e.t0 < origin || e.t0 > horizon) continue;
    std::string id = "-";
    auto it = owner.find({e.fd, e.kind == OpKind::write ? e.offset : 0});
    if (it != owner.end()) {
      for (const auto& [t, label] : it->second) {
        if (t <= e.t0) id = label;
      }
    }
    span((std::string("backend.") + fwdbench::op_name(e.kind)).c_str(), 20, e.t0, e.t1, id,
         ",\"fd\":" + std::to_string(e.fd) + ",\"offset\":" + std::to_string(e.offset) +
             ",\"bytes\":" + std::to_string(e.bytes));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---- floors -----------------------------------------------------------------

// Median time of one call of f over 9 trials of enough calls to fill ~2 ms.
template <class F>
double per_call_us(F f) {
  std::size_t reps = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) f();
    if (now_ns() - t0 > 2'000'000 || reps > (1u << 24)) break;
    reps *= 2;
  }
  std::vector<double> trials;
  for (int t = 0; t < 9; ++t) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) f();
    trials.push_back(us(now_ns() - t0) / static_cast<double>(reps));
  }
  return fwdbench::median_of(trials);
}

void per_layer(const Args& a, const std::vector<const Round*>& plain,
               const std::vector<const Round*>& traced, Report& rep, std::vector<std::string>& errors) {
  const char* wl = a.spec->name;
  const std::string tnote = "traced " + rounds_note(traced.size());
  const std::string pnote = "untraced " + rounds_note(plain.size());

  // Taps.
  std::vector<OpLayers> ops;
  std::uint64_t broken = 0;
  for (const Round* r : traced) {
    for (const auto& tr : r->traces) broken += split_ops(*tr, ops);
  }
  if (broken > 0) errors.push_back(std::to_string(broken) + " ops whose client spans do not tile the op");
  const bool has_reads =
      std::any_of(ops.begin(), ops.end(), [](const OpLayers& l) { return l.kind == OpKind::read; });
  const double nops = static_cast<double>(ops.size());
  double reads = 0, wbs = 0, recv = 0, writevs = 0, reply_send = 0;
  for (const OpLayers& l : ops) {
    reads += l.reads;
    wbs += l.would_blocks;
    recv += l.recv;
    writevs += l.writes;
    reply_send += l.reply_send;
  }
  rep.pct("client.encode_us", pick(ops, false, [](const OpLayers& l) { return l.encode; }), 0.5, "us");
  rep.pct("client.decode_us", pick(ops, has_reads, [](const OpLayers& l) { return l.decode; }), 0.5, "us");
  rep.pct("transport.send_us", pick(ops, false, [](const OpLayers& l) { return l.send; }), 0.5, "us");
  rep.pct("reply.wake_us", pick(ops, false, [](const OpLayers& l) { return l.reply_wake; }), 0.5, "us");
  rep.pct("lane.wake_us", pick(ops, false, [](const OpLayers& l) { return l.lane_wake; }), 0.5, "us");
  rep.add("lane.reads_per_op", ratio(reads, nops), "count", tnote);
  rep.add("lane.would_block_share", ratio(wbs, reads), "ratio", tnote);
  rep.add("lane.recv_us_per_op", ratio(recv, nops), "us", tnote);
  rep.pct("server.self_us", pick(ops, false, [](const OpLayers& l) { return l.self; }), 0.5, "us");
  rep.add("reply.writev_per_op", ratio(writevs, nops), "count", tnote);
  rep.add("reply.send_us_per_op", ratio(reply_send, nops), "us", tnote);

  double be_writes = 0, be_bytes = 0, be_busy = 0, fsyncs = 0, fsync_us = 0, window_s = 0;
  double user_writes = 0, journal = 0, round_bytes = 0;
  for (const Round* r : traced) {
    for (const BackendEvent& e : r->backend) {
      if (!in_windows(r->windows, e.t0)) continue;
      be_busy += us(e.t1 - e.t0);
      if (e.kind == OpKind::write) {
        ++be_writes;
        be_bytes += static_cast<double>(e.bytes);
      } else if (e.kind == OpKind::fsync) {
        ++fsyncs;
        fsync_us += us(e.t1 - e.t0);
      }
    }
    window_s += r->timed_s;
    user_writes += static_cast<double>(r->timed_writes);
    journal += static_cast<double>(r->journal_bytes);
    round_bytes += static_cast<double>(r->round_write_bytes);
  }
  rep.add("backend.write_calls_per_user_write", ratio(be_writes, user_writes), "ratio", tnote);
  rep.add("backend.mib_per_call", ratio(be_bytes / kMiB, be_writes), "MiB", tnote);
  rep.add("backend.busy_share", ratio(be_busy / 1e6, window_s), "ratio", tnote);
  rep.add("backend.fsync_us", ratio(fsync_us, fsyncs), "us", std::to_string(static_cast<int>(fsyncs)) + " fsyncs");
  rep.add("bb.journal.bytes_per_user_byte", ratio(journal, round_bytes), "ratio", tnote);

  // Client-observed rates and latencies, registry and rusage, from the
  // untraced rounds.
  wall_clock(plain, rep);
  std::vector<double> loop_max, wlat_p99, qw50, qw99, depth, bml_hw, bml_to, copy, stall, bbdeg, flushed, drift;
  double ops_total = 0, degraded = 0, srv_ops = 0, bb_in = 0, bb_out = 0, appends = 0, writes_total = 0;
  double cpu = 0, client_cpu = 0, ctxsw = 0, timed_s = 0;
  for (const Round* r : plain) {
    auto d = [r](const char* k) {
      auto it = r->counter_delta.find(k);
      return it == r->counter_delta.end() ? 0.0 : static_cast<double>(it->second);
    };
    double lm = 0;
    for (const auto& [name, h] : r->end.histograms) {
      if (name.starts_with("server.rt.lane.") && name.ends_with(".loop_us")) {
        lm = std::max(lm, static_cast<double>(h.max));
      }
    }
    loop_max.push_back(lm);
    if (const auto* h = r->end.histogram("server.write_latency_us")) wlat_p99.push_back(h->p99);
    if (const auto* h = r->end.histogram("server.sched.queue_wait_us")) {
      qw50.push_back(h->p50);
      qw99.push_back(h->p99);
    }
    depth.push_back(static_cast<double>(r->end.gauge("server.queue_max_depth")));
    bml_hw.push_back(static_cast<double>(r->end.gauge("server.bml_high_watermark")) / kMiB);
    bml_to.push_back(d("server.bml_timeouts"));
    copy.push_back(d("server.reply.payload_copy_bytes"));
    stall.push_back(d("bb.stall_ns") / 1e6);
    bbdeg.push_back(d("bb.degraded_writes"));
    flushed.push_back(d("bb.flushed_bytes") / kMiB);
    degraded += d("server.degraded_passthrough_ops") + d("server.degraded_sync_writes");
    srv_ops += d("server.ops");
    bb_in += d("bb.writes_in");
    bb_out += d("bb.backend_writes");
    appends += d("bb.journal.appends");
    writes_total += static_cast<double>(r->timed_writes);
    ops_total += static_cast<double>(r->timed_ops);
    cpu += r->cpu_us;
    client_cpu += r->client_cpu_us;
    ctxsw += r->ctxsw;
    timed_s += r->timed_s;
    drift.insert(drift.end(), r->drift.begin(), r->drift.end());
  }
  const std::string per_round = "median per round, " + pnote;
  rep.add("lane.loop_us_max", fwdbench::median_of(loop_max), "us", per_round);
  rep.add("server.write_drift", fwdbench::median_of(drift), "ratio",
          "median of " + std::to_string(drift.size()) + " descriptors");
  rep.add("server.write_latency_p99_us", fwdbench::median_of(wlat_p99), "us", per_round);
  rep.add("sched.queue_wait_p50_us", fwdbench::median_of(qw50), "us", per_round);
  rep.add("sched.queue_wait_p99_us", fwdbench::median_of(qw99), "us", per_round);
  rep.add("sched.max_depth", fwdbench::median_of(depth), "count", per_round);
  rep.add("bml.high_watermark_mib", fwdbench::median_of(bml_hw), "MiB", per_round);
  rep.add("bml.timeouts", fwdbench::median_of(bml_to), "count", per_round);
  rep.add("server.degraded_passthrough_share", ratio(degraded, srv_ops), "ratio", pnote);
  rep.add("reply.payload_copy_bytes", fwdbench::median_of(copy), "bytes", per_round);
  rep.add("bb.coalesce", ratio(bb_in, bb_out), "ratio", pnote);
  rep.add("bb.stall_ms", fwdbench::median_of(stall), "ms", per_round);
  rep.add("bb.degraded_writes", fwdbench::median_of(bbdeg), "count", per_round);
  rep.add("bb.flushed_mib", fwdbench::median_of(flushed), "MiB", per_round);
  rep.add("bb.journal.appends_per_write", ratio(appends, writes_total), "ratio", pnote);
  rep.add("proc.cpu_us_per_op", ratio(cpu, ops_total), "us", pnote);
  rep.add("proc.ctxsw_per_op", ratio(ctxsw, ops_total), "count", pnote);
  rep.add("client.cpu_us_per_op", ratio(client_cpu, ops_total), "us", pnote);

  // Floors at the workload's op size.
  std::vector<std::byte> src(a.spec->op_bytes, std::byte{0x5a});
  std::vector<std::byte> dst(a.spec->op_bytes);
  volatile std::uint32_t sink = 0;
  rep.add("core.crc32c_us", per_call_us([&] { sink = sink + crc32c(src.data(), src.size()); }), "us",
          std::string(crc32c_impl()) + ", " + std::to_string(a.spec->op_bytes) + " B");
  rep.add("core.memcpy_us", per_call_us([&] {
            std::memcpy(dst.data(), src.data(), src.size());
            sink = sink + static_cast<std::uint32_t>(dst[sink % dst.size()]);
          }),
          "us", std::to_string(a.spec->op_bytes) + " B");

  double t_ops = 0, t_s = 0;
  for (const Round* r : traced) {
    t_ops += static_cast<double>(r->timed_ops);
    t_s += r->timed_s;
  }
  const double plain_rate = ratio(ops_total, timed_s);
  rep.add("trace.overhead_pct", 100.0 * ratio(plain_rate - ratio(t_ops, t_s), plain_rate), "%",
          "ops_per_s, untraced vs traced rounds");

  print_self_time_table(wl, ops);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.12g", v);
  return b;
}

std::string metrics_json(const Report& rep) {
  std::string o = "{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    o += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return o + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  // One malloc arena for every thread. With glibc's default, a thread that
  // finds an arena locked creates another, so the arena count and the peak
  // RSS depend on which threads collided: small_write's rss_peak_mib ranged
  // 163-185 MiB over six seeds with the default and 145-152 MiB with one.
  mallopt(M_ARENA_MAX, 1);
  const std::string env =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + ", \"crc32c_impl\": \"" +
      crc32c_impl() + "\", \"build_type\": \"" FWDBENCH_BUILD_TYPE "\", \"commit\": \"" +
      json_escape(a.commit) + "\", \"src_digest\": \"" + json_escape(a.src_digest) +
      "\", \"transport\": \"AF_UNIX loopback (socketpair)\", \"clients\": " + std::to_string(kClients) + "}";
  std::printf("fwdbench %s seed=%" PRIu64 " seconds=%g trace=%d\nenv: %s\n", a.spec->name, a.seed,
              a.seconds, a.trace ? 1 : 0, env.c_str());
  if (std::string(crc32c_impl()) == "software") {
    std::printf("note: software crc32c on this host; per-byte costs are not comparable to hardware-CRC hosts\n");
  }

  const std::string work = a.work_dir + "/" + std::to_string(::getpid());
  std::filesystem::create_directories(work);
  std::filesystem::create_directories(a.out_dir);
  Args run = a;
  run.work_dir = work;

  // Rounds repeat until the time budget is spent. Round 0 warms the process
  // up (small_write's set-up in round 0 is about twice that of later
  // rounds): it is checked like every round but left out of the figures.
  // At least two rounds follow it (with --trace 1, one untraced and one
  // traced, alternating).
  constexpr int kWarmupRounds = 1;
  Inputs in = make_inputs(*a.spec, a.seed);
  std::vector<Round> rounds;
  const std::int64_t t_run = now_ns();
  double longest = 0;
  double rss_mib = 0;
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - t_run) / 1e9;
    if (i >= kWarmupRounds + 2 && elapsed + longest > a.seconds) break;
    const std::int64_t t0 = now_ns();
    const bool traced = a.trace && i >= kWarmupRounds && (i - kWarmupRounds) % 2 == 1;
    rounds.push_back(run_round(run, in, i, traced));
    // Peak RSS is taken over the first round only: later rounds reuse heap
    // the allocator retained from earlier ones, so their peaks depend on
    // the rounds before them rather than on the workload.
    if (i == 0) rss_mib = vm_hwm_mib();
    longest = std::max(longest, static_cast<double>(now_ns() - t0) / 1e9);
    if (!rounds.back().errors.empty() || rounds.back().failed > 0) break;
  }
  std::error_code ec;
  std::filesystem::remove_all(work, ec);

  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    auto pct_or_0 = [](const std::vector<double>& v, double q) {
      auto p = fwdbench::percentile(v, q);
      return p ? p->value : 0.0;
    };
    std::printf("round %zu%s%s: setup %.4f s, %" PRIu64 " timed ops in %.3f s (%.1f ops/s), "
                "write p50/p99 %.1f/%.1f us, read p50/p99 %.1f/%.1f us, CPU per op ion/cn %.1f/%.1f us\n",
                i, r.traced ? " (traced)" : "", i < std::size_t{kWarmupRounds} ? " (warm-up)" : "",
                r.setup_s, r.timed_ops, r.timed_s, ratio(static_cast<double>(r.timed_ops), r.timed_s),
                pct_or_0(r.write_us, 0.5), pct_or_0(r.write_us, 0.99), pct_or_0(r.read_us, 0.5),
                pct_or_0(r.read_us, 0.99), ratio(r.ion_cpu_us, static_cast<double>(r.ion_ops)),
                ratio(r.client_cpu_us, static_cast<double>(r.timed_ops)));
  }

  std::vector<const Round*> plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    if (i >= std::size_t{kWarmupRounds}) (r.traced ? traced : plain).push_back(&r);
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (r.digests != rounds.front().digests) {
      errors.push_back("backend bytes differ between rounds " + std::string(r.traced ? "(traced)" : "(untraced)") +
                       " of the same inputs");
    }
  }

  Report rep;
  Report wall;  // --trace 0: printed for reference, not part of the result line
  if (!a.trace) {
    end_to_end(plain, attempted, failed, rss_mib, rep);
    wall_clock(plain, wall);
  } else {
    per_layer(a, plain, traced, rep, errors);
    if (!traced.empty()) {
      write_chrome_trace(a.out_dir + "/" + a.spec->name + "-seed" + std::to_string(a.seed) + ".trace.json",
                         *traced.front());
    }
  }
  for (const Report* r : {&rep, &wall}) {
    for (const std::string& m : r->missing) errors.push_back("too few samples for " + m);
  }

  auto print_table = [](const Report& r) {
    for (const Metric& m : r.metrics) {
      std::printf("%-36s %16.4f  %-6s  %s\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples.c_str());
    }
  };
  std::printf("\n%-36s %16s  %-6s  %s\n", "metric", "value", "unit", "samples");
  print_table(rep);
  if (!wall.metrics.empty()) {
    std::printf("wall clock (host-contention sensitive, reported with --trace 1):\n");
    print_table(wall);
  }
  std::printf("rounds: %d warm-up, %zu untraced, %zu traced; ops attempted %" PRIu64
              ", failed %" PRIu64 "\n",
              kWarmupRounds, plain.size(), traced.size(), attempted, failed);
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  const bool correct = errors.empty() && failed == 0;
  const std::string metrics = metrics_json(rep);
  const std::string result_path = a.out_dir + "/" + a.spec->name + "-seed" + std::to_string(a.seed) +
                                  "-trace" + (a.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"env\": %s, \"rounds\": %zu, \"metrics\": %s}\n",
                 a.spec->name, a.seed, env.c_str(), rounds.size(), metrics.c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
