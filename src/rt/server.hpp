// IonServer: the real I/O-forwarding daemon.
//
// Pluggable execution models mirror the paper's mechanisms:
//   * thread_per_client  — ZOID's baseline: the receiver lane thread that
//     reads a request executes it inline and replies (synchronous).
//   * work_queue         — I/O scheduling: receivers enqueue tasks into the
//     shared FIFO; a worker pool drains it with batched multiplexing; the
//     client still blocks until completion (synchronous staging).
//   * work_queue_async   — adds asynchronous data staging: writes are
//     copied into a BML buffer and acknowledged immediately ("staged");
//     completion status is recorded in the descriptor database and
//     surfaced on the next operation on that descriptor (deferred errors),
//     on fsync, or on close.
//
// Semantics notes (documented guarantees):
//   * open/close/fsync are always synchronous (paper Sec. IV).
//   * In async mode, a read on a descriptor first drains that descriptor's
//     in-flight writes (read barrier), so read-after-write is consistent.
//   * Overlapping async writes to the same region may complete in any
//     order (as with POSIX AIO).
//   * A staged write or a read that the backend can finish without waiting
//     (IoBackend::try_write/try_read) completes on the receiver lane, when
//     no op of its descriptor is in flight and the work queue is empty;
//     it replies, records and defers errors exactly as a worker would
//     (DESIGN.md §13).
//   * A deferred error is returned by the next operation on the
//     descriptor, which is then NOT executed; the error is consumed.
//   * With the burst buffer enabled (ServerConfig::bb_bytes > 0), staged
//     writes additionally land in a write-back extent cache (src/bb/) that
//     serves read-your-writes directly from cached extents and drains to the
//     inner backend in the background; its flush errors follow the same
//     deferred-error rules.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include <functional>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/descriptor_db.hpp"
#include "rt/backend.hpp"
#include "rt/event_loop.hpp"
#include "rt/filter.hpp"
#include "rt/frame_assembler.hpp"
#include "rt/bml.hpp"
#include "rt/qos.hpp"
#include "rt/scheduler.hpp"
#include "rt/task_queue.hpp"
#include "rt/transport.hpp"
#include "rt/wire.hpp"

namespace iofwd::bb {
class BurstBufferBackend;
}  // namespace iofwd::bb

namespace iofwd::cluster {
class ClusterBbBudget;
}  // namespace iofwd::cluster

namespace iofwd::rt {

enum class ExecModel { thread_per_client, work_queue, work_queue_async };

[[nodiscard]] const char* to_string(ExecModel m);

struct ServerConfig {
  ExecModel exec = ExecModel::work_queue_async;
  int workers = 4;           // paper's sweet spot on a 4-core ION (Fig. 11)
  int multiplex_depth = 8;   // tasks per event-loop pass
  bool balanced_batches = true;
  // Receiver lanes (DESIGN.md §13): a fixed pool of epoll event-loop threads
  // that multiplex every pollable connection, replacing thread-per-connection
  // receive. New connections go to the lane with the fewest — the paper's
  // least-loaded-worker heuristic. 0 = min(4, hardware_concurrency). A
  // stream no lane can take (no readiness fd) is refused, not threaded.
  int recv_lanes = 0;
  // Per-connection bound on queued-but-unsent reply bytes (headers +
  // payloads) in the asynchronous send path (DESIGN.md §15). A connection
  // whose peer stops reading accumulates gather descriptors until this cap,
  // then is dropped (counted in server.reply.queue_full) — bounding server
  // memory against slow readers the same way the BML pool bounds receives.
  std::uint64_t send_queue_bytes = 4ull << 20;
  std::uint64_t bml_bytes = 256ull << 20;
  std::uint64_t bml_min_class = 4096;
  SizeClassPolicy bml_policy = SizeClassPolicy::pow2;
  // Burst-buffer staging cache (src/bb/): when bb_bytes > 0 the backend is
  // wrapped in a write-back extent cache with its own flusher pool, which
  // absorbs non-sequential checkpoint bursts and drains in the background.
  std::uint64_t bb_bytes = 0;  // 0 = disabled
  double bb_high_watermark = 0.75;
  double bb_low_watermark = 0.50;
  int bb_flushers = 2;
  // Cluster-wide staging budget (src/cluster/, DESIGN.md §14): when set, the
  // burst buffer reserves every cached byte against this shared accountant,
  // so the fleet's aggregate staged bytes respect one global watermark. Null
  // = standalone server (per-shard watermarks only). Must outlive the server.
  cluster::ClusterBbBudget* bb_cluster_budget = nullptr;
  // Burst-buffer write-ahead journal (DESIGN.md §16): when non-empty (and
  // bb_bytes > 0), every staged extent is journaled in this directory before
  // its ack and replayed into the cache on startup, making a shard crash
  // recoverable with zero acked-data loss. Empty = no journal.
  std::string bb_journal_dir;
  std::uint64_t bb_journal_segment_bytes = 8ull << 20;
  bool bb_journal_fsync = false;  // fdatasync per append (host-crash durability)
  // Graceful degradation (DESIGN.md §10). A writer that cannot lease BML
  // staging space within bml_wait_ms falls back to synchronous pass-through
  // execution on the receiver thread instead of blocking forever (0 = wait
  // forever, the pre-resilience behavior). A burst-buffer writer stalled
  // longer than bb_max_stall_ms bypasses the cache the same way.
  std::uint32_t bml_wait_ms = 100;
  std::uint32_t bb_max_stall_ms = 100;
  // Async staging switches to synchronous staging when the task-queue depth
  // reaches degraded_high_watermark and back once it falls to
  // degraded_low_watermark (0 = never degrade).
  std::uint64_t degraded_high_watermark = 0;
  std::uint64_t degraded_low_watermark = 0;
  // Work-queue dispatch policy (DESIGN.md §17): fifo (the paper's order,
  // default), prio (header priority classes), edf (earliest deadline_ms
  // first), fair (deficit round-robin on bytes across tenants). FIFO is
  // byte-for-byte the pre-scheduler behavior.
  SchedPolicy sched = SchedPolicy::fifo;
  std::uint64_t sched_quantum_bytes = kDefaultDrrQuantum;  // fair policy only
  // Per-tenant admission control (DESIGN.md §17): token buckets on bytes and
  // ops per tenant. A data op that exceeds its tenant's budget is not
  // rejected — it is demoted to synchronous staging exactly like the
  // queue-depth hysteresis, so the hot tenant absorbs its own backpressure.
  // Both rates zero = QoS off.
  QosConfig qos;
  // Fault hook consulted per admission decision (tenant, payload bytes);
  // returning true forces a throttle. Lets a fault::FaultPlan drive QoS
  // chaos without rt depending on the fault library (which depends on rt).
  std::function<bool(std::uint64_t, std::uint64_t)> qos_fault_hook;
  // Observability (src/obs/, DESIGN.md §11). Every server counter lives in
  // an obs::MetricRegistry under the "server." prefix and is read through
  // IonServer::metrics(). A null registry means the server creates a private
  // one; pass a shared registry to aggregate several subsystems (retry, bb,
  // client) into a single namespace for analysis::metrics_table.
  obs::MetricRegistry* registry = nullptr;
  // Wall-clock Chrome-trace sink (ion_daemon --trace-out): per-op spans on
  // worker-lane tids plus queue-depth and BML-in-use counter tracks. Null =
  // tracing off (zero hot-path cost beyond one branch).
  obs::RuntimeTracer* tracer = nullptr;
  // Completed-op flight-recorder ring (dumped on SIGUSR1). 0 = disabled.
  std::size_t flight_recorder_ops = 256;
  // Highest wire-protocol version offered during hello negotiation
  // (DESIGN.md §12). kProtoVersion enables per-payload CRC32C with v1
  // clients; 0 emulates a legacy server (checksums stay off).
  std::uint16_t max_wire_version = kProtoVersion;
};

class IonServer {
 public:
  IonServer(std::unique_ptr<IoBackend> backend, ServerConfig cfg);
  ~IonServer();
  IonServer(const IonServer&) = delete;
  IonServer& operator=(const IonServer&) = delete;

  // Serve a connected stream: it is registered with the least-loaded
  // receiver lane, and its replies leave through the asynchronous send path
  // (bounded per-connection gather queues drained by the lane under
  // EPOLLOUT, DESIGN.md §15). A stream no lane can take — a readiness fd < 0
  // on either side, or no lane could be created or registered with — is
  // closed and counted in server.rt.refused. Lanes are created lazily, so a
  // later serve() retries a failed lane creation.
  void serve(std::unique_ptr<ByteStream> stream);

  // Accept clients from a listener (UNIX or TCP) until stop() (spawns a
  // thread).
  void serve_listener(std::unique_ptr<Listener> listener);

  // Fuzz/robustness entry point (DESIGN.md §12): pushes `bytes` through the
  // lanes' on_bytes -> FrameAssembler -> dispatch pipeline inline, on the
  // calling thread, for a stream-less connection whose peer is already gone.
  // Replies are fully built (header encoded, payload CRC stamped) and then
  // dropped, counted in server.reply.peer_gone. This is the precise code
  // path a hostile or bit-flipped peer reaches, minus the socket —
  // tests/fuzz/server_bytes_fuzz.cpp drives it with arbitrary inputs and the
  // checked-in corpus replays through it under ctest.
  void feed_bytes(std::span<const std::byte> bytes);

  // Install a data-filtering chain (in-situ analytics / data reduction,
  // paper Sec. VII). Must be called before clients are served; applied to
  // every forwarded write by the executing worker.
  void set_filter_chain(FilterChain chain) { filters_ = std::move(chain); }

  // Drain the queue, close client streams, join every thread. Idempotent.
  void stop();

  // Simulate a process crash (DESIGN.md §16): tear down connections and
  // threads like stop(), but DISCARD every staged burst-buffer extent
  // instead of flushing it — in-memory state dies, the write-ahead journal
  // files stay on disk as the crash image a restarted server recovers from.
  // Idempotent with stop(); whichever runs first wins.
  void crash_stop();

  // Quiesce without shutting down: wait until the task queue and every
  // in-flight worker task have drained, then flush the burst buffer.
  // Connections stay open and new ops keep flowing afterward — this is the
  // shard-aware drain a cluster uses to quiesce one ION while its siblings
  // keep serving. Callers stop issuing ops to this server first (the quiesce
  // assumption); concurrent traffic just keeps drain() polling longer.
  void drain();

  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

  // The registry behind metrics() — server-owned unless ServerConfig::registry
  // was set. Shared handles stay valid for the server's lifetime.
  [[nodiscard]] obs::MetricRegistry& registry() const { return *reg_; }
  // The one read surface for server counts (DESIGN.md §11): a point-in-time
  // view of every metric. It first mirrors queue, pool and burst-buffer
  // state into their gauges and folds an open degraded span into
  // server.degraded_ns, so the snapshot is self-contained and exact.
  [[nodiscard]] obs::Snapshot metrics() const;
  // Completed-op ring, or nullptr when flight_recorder_ops == 0.
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const { return fr_.get(); }

  // The burst-buffer cache wrapping the backend, or nullptr when disabled.
  [[nodiscard]] const bb::BurstBufferBackend* burst_buffer() const { return bb_; }

 private:
  struct Lane;  // receiver lane: epoll loop + its connections (server.cpp)

  // Receive-side state of the op currently being reassembled. Only the one
  // lane thread that owns the connection (or feed_bytes' caller) touches it,
  // so it needs no locking. Staging is chosen at header time, so BML
  // backpressure lands before the payload bytes are consumed.
  struct RxPending {
    enum class Staging { none, bml, heap, discard };
    FrameHeader req{};
    std::chrono::steady_clock::time_point arrival{};
    Staging staging = Staging::none;
    Buffer bml;                    // staged write payload (BML lease)
    std::vector<std::byte> heap;   // open path / degraded pass-through payload
    Status bounce;                 // discard: replied once the bytes are consumed
    bool degraded = false;         // heap staging came from a BML timeout
  };

  // One queued reply awaiting transmission: an encoded header plus a view of
  // the payload bytes, pinned by whichever lease backs them. The payload is
  // never copied onto the queue — `bml` (a pool lease moved off the read
  // path) or `bb_pin` (a burst-buffer extent pin) keeps the viewed bytes
  // alive until the last byte is accepted by the kernel; `copy` is the one
  // exception, for tiny fixed-size payloads like fstat's 8-byte size.
  struct SendEntry {
    std::array<std::byte, FrameHeader::kWireSize> hdr{};
    Buffer bml;
    std::shared_ptr<Buffer> bb_pin;
    std::vector<std::byte> copy;
    std::span<const std::byte> payload;
    std::size_t sent = 0;  // bytes of hdr+payload already accepted

    [[nodiscard]] std::size_t total() const { return FrameHeader::kWireSize + payload.size(); }
  };

  // What a reply carries and what keeps it alive (see SendEntry). Move-only
  // because it may own a BML lease.
  struct ReplyPayload {
    std::span<const std::byte> bytes{};
    Buffer bml{};
    std::shared_ptr<Buffer> bb_pin{};
    bool copy = false;  // memcpy bytes at enqueue (counted, tiny payloads only)
  };

  struct ClientConn {
    std::unique_ptr<ByteStream> stream;  // null only for feed_bytes
    // Negotiated wire version: 0 until (unless) the client sends `hello`,
    // then min(client, server). Atomic because workers stamp replies while
    // the receiver thread negotiates.
    std::atomic<std::uint16_t> version{0};
    // Tenant (client/job) id from the hello handshake's offset field; 0 for
    // v0 clients (one shared "anonymous" tenant). Keys the fair scheduler
    // and the QoS buckets. Atomic for the same negotiation race as version.
    std::atomic<std::uint64_t> tenant{0};
    // Receiver-lane state (owned by the lane thread).
    FrameAssembler assembler;
    RxPending rx;
    Lane* lane = nullptr;        // null only for feed_bytes
    std::uint64_t lane_key = 0;  // epoll registration key within that lane
    int rfd = -1;                // cached stream->read_readiness_fd()
    int wfd = -1;                // cached stream->write_readiness_fd()
    // Asynchronous send queue (DESIGN.md §15), guarded by send_mu. Entries
    // are drained by whoever holds send_mu — enqueuer or lane thread — with
    // gathered writev_some calls; on would_block the connection arms write
    // interest with its lane and the lane resumes the drain on EPOLLOUT.
    std::mutex send_mu;
    std::deque<SendEntry> sendq;
    std::uint64_t sendq_bytes = 0;    // unsent bytes queued (hdr + payload)
    bool epollout_armed = false;      // same-fd: registration is read_write
    bool shim_registered = false;     // distinct write shim fd added to loop
    bool peer_gone = false;           // sends are futile; drop new replies
  };

  struct Task {
    std::shared_ptr<ClientConn> conn;
    FrameHeader req;
    Buffer payload;            // staged write data (owned)
    bool reply_on_completion = false;  // sync staging
    bool record_in_db = false;         // async staging
    std::uint64_t db_seq = 0;
    // Arrival time at the server; the req.deadline_ms budget counts from
    // here while the task waits in the queue.
    std::chrono::steady_clock::time_point arrival{};
  };

  // Trace tid for ops executed inline on a receiver thread (thread-per-client
  // mode, degraded pass-through, open/close/fsync/fstat). Worker lanes use
  // their pool index 0..workers-1.
  static constexpr int kInlineLane = 99;

  // Receiver path (DESIGN.md §13). Lanes poll and funnel raw bytes through
  // on_bytes -> FrameAssembler -> on_header/on_frame; feed_bytes calls the
  // same on_bytes inline, so decode is byte-for-byte identical.
  void lane_loop(Lane& lane);
  void drop_lane_conn(Lane& lane, std::uint64_t key, ClientConn& conn, Errc reason);
  Status on_bytes(const std::shared_ptr<ClientConn>& conn, std::span<const std::byte> bytes);
  Result<FrameAssembler::Sink> on_header(
      ClientConn& conn, std::span<const std::byte, FrameHeader::kWireSize> hdr_bytes);
  Status on_frame(const std::shared_ptr<ClientConn>& conn);
  // Spawn the lane pool on first connection (threads_mu_ held). Leaves
  // lanes_ empty if no event loop could be created, so the next call retries.
  void ensure_lanes_locked();

  void worker_loop(int lane);
  void execute_task(Task& t, int lane);
  // The completion half of execute_task, shared with the lanes' non-blocking
  // fast path: release the lease, observe, retire the op in the descriptor
  // DB (async) and reply (sync).
  void finish_task(Task& t, const Status& st);
  void finish_read(ClientConn& conn, const FrameHeader& req,
                   std::chrono::steady_clock::time_point arrival,
                   const Result<std::uint64_t>& r, Buffer out);
  // Apply the filter chain (if any) and issue the backend write.
  Status do_write(const FrameHeader& req, std::span<const std::byte> data);
  // True if the op's deadline budget has run out (deadline_ms > 0 only).
  [[nodiscard]] static bool past_deadline(const FrameHeader& req,
                                          std::chrono::steady_clock::time_point arrival);
  // Queue-depth hysteresis: decides (and accounts) sync-staging degradation.
  bool degraded_now(std::size_t queue_depth);
  // Scheduling metadata for a queued data op (DESIGN.md §17).
  [[nodiscard]] static SchedMeta sched_meta(const ClientConn& conn, const FrameHeader& req,
                                            std::chrono::steady_clock::time_point arrival);

  // Shared thread/connection teardown behind stop() and crash_stop(); the
  // two differ only in what happens to the burst buffer afterwards.
  void teardown_for_stop();

  // Completed-op bookkeeping: latency histogram (write/read) + flight ring.
  void observe_op(const FrameHeader& req, std::chrono::steady_clock::time_point arrival,
                  const Status& st);

  // Inline op handlers (lane thread, or feed_bytes' caller). Payload-carrying
  // ops receive their fully assembled payload; the others run at frame
  // completion exactly as before.
  void handle_hello(ClientConn& conn, const FrameHeader& req);
  void handle_ping(ClientConn& conn, const FrameHeader& req);
  void handle_open(ClientConn& conn, const FrameHeader& req,
                   std::span<const std::byte> path_bytes,
                   std::chrono::steady_clock::time_point arrival);
  void handle_close(ClientConn& conn, const FrameHeader& req,
                    std::chrono::steady_clock::time_point arrival);
  void handle_fsync(ClientConn& conn, const FrameHeader& req,
                    std::chrono::steady_clock::time_point arrival);
  void handle_fstat(ClientConn& conn, const FrameHeader& req,
                    std::chrono::steady_clock::time_point arrival);
  void handle_write(const std::shared_ptr<ClientConn>& conn, RxPending& rx);
  void handle_read(const std::shared_ptr<ClientConn>& conn, const FrameHeader& req,
                   std::chrono::steady_clock::time_point arrival);

  // Reply path (DESIGN.md §15). enqueue_reply builds the reply header
  // (stamping the payload CRC straight from the lease bytes), then queues a
  // gather descriptor on the connection's send queue and drains what the
  // stream accepts without blocking; the lane resumes the drain on write
  // readiness. A connection marked peer_gone drops the built reply instead.
  // Failures are accounted in server.reply.*, never returned: a reply that
  // cannot be delivered means the peer is gone or hopelessly slow, and the
  // connection is dropped.
  void enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status);
  void enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status,
                     ReplyPayload payload, bool staged = false);
  // Drain the queue with gathered writev_some until empty or would_block
  // (conn.send_mu must be held). Arms/disarms lane write interest.
  void drain_send_queue_locked(ClientConn& conn);
  void arm_write_interest_locked(ClientConn& conn);
  // Discard every queued entry (releases leases) and mark the peer gone.
  void abort_send_queue_locked(ClientConn& conn);
  // Lane EPOLLOUT/shim-tick dispatch: resume the drain for this connection.
  void on_send_ready(ClientConn& conn);
  // Block (politely, with poll) until the queue flushes — used for the
  // shutdown goodbye so the reply beats the connection teardown.
  void flush_send_queue_blocking(ClientConn& conn);

  // Deferred-error gate: non-ok means the op must bounce without executing.
  // With `drain`, first wait (in the same db_mu_ hold) until no op on fd is
  // in flight — the read, fsync and fstat barrier.
  Status consume_deferred(int fd, bool drain = false);
  // The staged write's gate and begin_op in one db_mu_ hold: the op's seq
  // and whether no other op on fd was in flight, or the status it must
  // bounce with.
  struct Staged {
    std::uint64_t seq = 0;
    bool alone = true;
  };
  Result<Staged> begin_staged(int fd);
  void note_completed(int fd, std::uint64_t seq, const Status& st);

  std::unique_ptr<IoBackend> backend_;
  bb::BurstBufferBackend* bb_ = nullptr;  // owned via backend_ when enabled
  ServerConfig cfg_;
  FilterChain filters_;
  BufferPool pool_;
  TaskQueue<Task> queue_;
  std::unique_ptr<QosGovernor> qos_;  // null when QoS is off

  // Observability: registry-backed counters. Handles are registered once
  // here; the hot path only does relaxed atomic adds.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* reg_;              // never null
  obs::RuntimeTracer* tracer_;            // null = tracing off
  std::unique_ptr<obs::FlightRecorder> fr_;
  obs::Counter& c_ops_;
  obs::Counter& c_bytes_in_;
  obs::Counter& c_bytes_out_;
  obs::Counter& c_deferred_errors_;
  obs::Counter& c_filter_bytes_in_;
  obs::Counter& c_filter_bytes_out_;
  obs::Counter& c_deadline_expired_;
  obs::Counter& c_bml_timeouts_;
  obs::Counter& c_degraded_passthrough_;
  obs::Counter& c_degraded_sync_writes_;
  obs::Counter& c_degraded_enters_;
  obs::Counter& c_degraded_ns_;
  obs::Counter& c_hellos_;
  obs::Counter& c_header_crc_errors_;
  obs::Counter& c_payload_crc_errors_;
  obs::Counter& c_frames_rejected_;
  obs::Counter& c_replies_enqueued_;
  obs::Counter& c_replies_sent_;
  obs::Counter& c_reply_queue_full_;
  obs::Counter& c_reply_peer_gone_;
  obs::Counter& c_reply_copy_bytes_;
  obs::Counter& c_refused_;  // server.rt.refused: streams no lane could take
  obs::Histogram& h_write_lat_us_;
  obs::Histogram& h_read_lat_us_;
  obs::Histogram& h_queue_wait_us_;  // server.sched.queue_wait_us
  // Instantaneous queue/pool state, refreshed by metrics().
  obs::Gauge& g_queue_depth_;
  obs::Gauge& g_queue_max_depth_;
  obs::Gauge& g_queue_batches_;
  obs::Gauge& g_bml_in_use_;
  obs::Gauge& g_bml_blocked_;
  obs::Gauge& g_bml_high_watermark_;

  std::mutex db_mu_;
  std::condition_variable db_cv_;
  proto::DescriptorDb db_;

  std::mutex threads_mu_;
  std::vector<std::jthread> threads_;
  std::vector<std::shared_ptr<ClientConn>> conns_;
  std::unique_ptr<Listener> listener_;
  std::atomic<bool> stopping_{false};
  // Tasks popped from the queue but not yet executed to completion; drain()
  // waits for queue empty AND this zero before flushing the burst buffer.
  std::atomic<std::uint64_t> tasks_in_flight_{0};

  // Receiver lanes, spawned lazily on the first served connection
  // (guarded by threads_mu_ until then; immutable afterwards).
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t next_conn_key_ = 1;  // threads_mu_ held

  // Sync-staging degradation state (hysteresis), guarded by degraded_mu_.
  // degraded_since_ starts the span not yet added to server.degraded_ns;
  // metrics() banks the open span and restarts it.
  mutable std::mutex degraded_mu_;
  bool degraded_mode_ = false;
  mutable std::chrono::steady_clock::time_point degraded_since_{};
};

}  // namespace iofwd::rt
