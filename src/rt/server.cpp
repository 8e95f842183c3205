#include "rt/server.hpp"

#include <poll.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>

#include "bb/burst_buffer.hpp"
#include "core/log.hpp"

namespace iofwd::rt {

const char* to_string(ExecModel m) {
  switch (m) {
    case ExecModel::thread_per_client: return "thread_per_client";
    case ExecModel::work_queue: return "work_queue";
    case ExecModel::work_queue_async: return "work_queue_async";
  }
  return "?";
}

namespace {
std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

int default_recv_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

// Epoll keys with this bit set are write-readiness shim registrations (a
// stream whose write_readiness_fd() differs from its read fd); the low bits
// are the owning connection's lane key. Connection keys count up from 1 and
// never reach the bit; the wake key (~0) is handled before dispatch.
constexpr std::uint64_t kSendKeyBit = 1ull << 63;

// Gather width per writev_some call: enough for 8 queued replies
// (header + payload each) without a heap allocation.
constexpr std::size_t kMaxGatherSpans = 16;
}  // namespace

// A receiver lane (DESIGN.md §13): one epoll event loop multiplexing many
// connections on one thread — the paper's poll-based worker structure applied
// to the receive side. Connections are keyed by an opaque 64-bit id; serve()
// inserts under mu, the lane thread drops under mu, and n_conns feeds the
// least-connections balancer without any lock.
struct IonServer::Lane {
  Lane(obs::MetricRegistry& reg, int idx)
      : index(idx),
        c_connections(reg.counter(prefix(idx) + "connections")),
        c_wakeups(reg.counter(prefix(idx) + "wakeups")),
        c_bytes(reg.counter(prefix(idx) + "bytes")),
        c_send_bytes(reg.counter(prefix(idx) + "send.bytes")),
        c_send_writev_calls(reg.counter(prefix(idx) + "send.writev_calls")),
        c_send_would_blocks(reg.counter(prefix(idx) + "send.would_blocks")),
        h_loop_us(reg.histogram(prefix(idx) + "loop_us")),
        g_open_connections(reg.gauge(prefix(idx) + "open_connections")),
        g_send_queued(reg.gauge(prefix(idx) + "send.queued_bytes")) {}

  static std::string prefix(int idx) { return "server.rt.lane." + std::to_string(idx) + "."; }

  void note_send_queued(std::int64_t delta) {
    g_send_queued.set(send_queued.fetch_add(delta, std::memory_order_relaxed) + delta);
  }

  int index;
  EventLoop loop;
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<ClientConn>> conns;
  std::atomic<std::size_t> n_conns{0};
  std::atomic<std::int64_t> send_queued{0};  // unsent reply bytes on this lane
  obs::Counter& c_connections;       // total registrations
  obs::Counter& c_wakeups;           // event-loop wakeups
  obs::Counter& c_bytes;             // raw bytes drained by this lane
  obs::Counter& c_send_bytes;        // reply bytes written by the async path
  obs::Counter& c_send_writev_calls; // gathered writev_some calls
  obs::Counter& c_send_would_blocks; // drains paused awaiting write readiness
  obs::Histogram& h_loop_us;         // time servicing one ready batch
  obs::Gauge& g_open_connections;    // currently registered connections
  obs::Gauge& g_send_queued;         // send-queue depth in bytes, lane-wide
  std::jthread thread;               // started by ensure_lanes_locked
};

IonServer::IonServer(std::unique_ptr<IoBackend> backend, ServerConfig cfg)
    : backend_(std::move(backend)),
      cfg_(cfg),
      pool_(cfg.bml_bytes, cfg.bml_min_class, cfg.bml_policy),
      queue_(cfg.workers, cfg.sched, cfg.sched_quantum_bytes),
      owned_registry_(cfg.registry != nullptr ? nullptr
                                              : std::make_unique<obs::MetricRegistry>()),
      reg_(cfg.registry != nullptr ? cfg.registry : owned_registry_.get()),
      tracer_(cfg.tracer),
      fr_(cfg.flight_recorder_ops > 0
              ? std::make_unique<obs::FlightRecorder>(cfg.flight_recorder_ops)
              : nullptr),
      c_ops_(reg_->counter("server.ops")),
      c_bytes_in_(reg_->counter("server.bytes_in")),
      c_bytes_out_(reg_->counter("server.bytes_out")),
      c_deferred_errors_(reg_->counter("server.deferred_errors")),
      c_filter_bytes_in_(reg_->counter("server.filter_bytes_in")),
      c_filter_bytes_out_(reg_->counter("server.filter_bytes_out")),
      c_deadline_expired_(reg_->counter("server.deadline_expired")),
      c_bml_timeouts_(reg_->counter("server.bml_timeouts")),
      c_degraded_passthrough_(reg_->counter("server.degraded_passthrough_ops")),
      c_degraded_sync_writes_(reg_->counter("server.degraded_sync_writes")),
      c_degraded_enters_(reg_->counter("server.degraded_enters")),
      c_degraded_ns_(reg_->counter("server.degraded_ns")),
      c_hellos_(reg_->counter("server.integrity.hellos")),
      c_header_crc_errors_(reg_->counter("server.integrity.header_crc_errors")),
      c_payload_crc_errors_(reg_->counter("server.integrity.payload_crc_errors")),
      c_frames_rejected_(reg_->counter("server.integrity.frames_rejected")),
      c_replies_enqueued_(reg_->counter("server.reply.enqueued")),
      c_replies_sent_(reg_->counter("server.reply.sent")),
      c_reply_queue_full_(reg_->counter("server.reply.queue_full")),
      c_reply_peer_gone_(reg_->counter("server.reply.peer_gone")),
      c_reply_copy_bytes_(reg_->counter("server.reply.payload_copy_bytes")),
      c_refused_(reg_->counter("server.rt.refused")),
      h_write_lat_us_(reg_->histogram("server.write_latency_us")),
      h_read_lat_us_(reg_->histogram("server.read_latency_us")),
      h_queue_wait_us_(reg_->histogram("server.sched.queue_wait_us")),
      g_queue_depth_(reg_->gauge("server.queue_depth")),
      g_queue_max_depth_(reg_->gauge("server.queue_max_depth")),
      g_queue_batches_(reg_->gauge("server.queue_batches")),
      g_bml_in_use_(reg_->gauge("server.bml_in_use")),
      g_bml_blocked_(reg_->gauge("server.bml_blocked")),
      g_bml_high_watermark_(reg_->gauge("server.bml_high_watermark")) {
  assert(backend_ && "IonServer needs a backend");
  reg_->gauge("server.sched.policy").set(static_cast<std::int64_t>(cfg_.sched));
  if (cfg_.qos.enabled()) qos_ = std::make_unique<QosGovernor>(cfg_.qos, *reg_);
  if (cfg_.bb_bytes > 0) {
    bb::BurstBufferConfig bcfg;
    bcfg.capacity_bytes = cfg_.bb_bytes;
    bcfg.high_watermark = cfg_.bb_high_watermark;
    bcfg.low_watermark = cfg_.bb_low_watermark;
    bcfg.flushers = cfg_.bb_flushers;
    bcfg.max_stall_ms = cfg_.bb_max_stall_ms;
    bcfg.registry = reg_;  // one namespace: "server.*" + "bb.*"
    bcfg.cluster_budget = cfg_.bb_cluster_budget;
    bcfg.journal_dir = cfg_.bb_journal_dir;
    bcfg.journal_segment_bytes = cfg_.bb_journal_segment_bytes;
    bcfg.journal_fsync = cfg_.bb_journal_fsync;
    auto wrapped = std::make_unique<bb::BurstBufferBackend>(std::move(backend_), bcfg);
    bb_ = wrapped.get();
    backend_ = std::move(wrapped);
  }
  if (cfg_.exec != ExecModel::thread_per_client) {
    std::scoped_lock lock(threads_mu_);
    for (int i = 0; i < cfg_.workers; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }
  if (tracer_ != nullptr) tracer_->set_thread_name(kInlineLane, "inline (receivers)");
}

IonServer::~IonServer() { stop(); }

void IonServer::ensure_lanes_locked() {
  if (!lanes_.empty()) return;
  const int n = cfg_.recv_lanes > 0 ? cfg_.recv_lanes : default_recv_lanes();
  for (int i = 0; i < n; ++i) {
    auto lane = std::make_unique<Lane>(*reg_, i);
    if (!lane->loop.valid()) break;  // out of fds: serve() refuses until a retry succeeds
    lanes_.push_back(std::move(lane));
  }
  for (auto& lane : lanes_) {
    lane->thread = std::jthread([this, l = lane.get()] { lane_loop(*l); });
  }
}

void IonServer::serve(std::unique_ptr<ByteStream> stream) {
  auto conn = std::make_shared<ClientConn>();
  conn->stream = std::move(stream);
  std::scoped_lock lock(threads_mu_);
  if (stopping_) {
    conn->stream->close();
    return;
  }
  conn->rfd = conn->stream->read_readiness_fd();
  // Resolve the write shim up front: InProcPipe creates its eventfd lazily,
  // and doing it here (single-threaded, pre-traffic) keeps the hot path free
  // of setup work.
  conn->wfd = conn->stream->write_readiness_fd();
  if (conn->rfd >= 0 && conn->wfd >= 0) {
    ensure_lanes_locked();
    if (!lanes_.empty()) {
      // Least-connections balancing across the lane pool (the paper's
      // least-loaded-worker heuristic applied to receive).
      Lane* lane = lanes_.front().get();
      for (const auto& l : lanes_) {
        if (l->n_conns.load(std::memory_order_relaxed) <
            lane->n_conns.load(std::memory_order_relaxed)) {
          lane = l.get();
        }
      }
      const std::uint64_t key = next_conn_key_++;
      conn->lane = lane;
      conn->lane_key = key;
      {
        std::scoped_lock lane_lock(lane->mu);
        lane->conns.emplace(key, conn);
      }
      lane->n_conns.fetch_add(1, std::memory_order_relaxed);
      if (lane->loop.add(conn->rfd, key).is_ok()) {
        conns_.push_back(conn);
        lane->c_connections.inc();
        lane->g_open_connections.set(
            static_cast<std::int64_t>(lane->n_conns.load(std::memory_order_relaxed)));
        return;
      }
      // Registration failed (fd limit?): unwind before refusing.
      {
        std::scoped_lock lane_lock(lane->mu);
        lane->conns.erase(key);
      }
      lane->n_conns.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // No lane can take this stream (no readiness fd, or no epoll/eventfd fds
  // left): refuse it. Closing wakes a peer blocked reading for a reply.
  c_refused_.inc();
  conn->stream->close();
}

void IonServer::feed_bytes(std::span<const std::byte> bytes) {
  // A stream-less connection whose peer is already gone: every reply is
  // still fully built in enqueue_reply, then dropped as peer_gone.
  auto conn = std::make_shared<ClientConn>();
  conn->peer_gone = true;
  (void)on_bytes(conn, bytes);
  conn->rx = RxPending{};  // a partial frame's BML lease returns now
}

void IonServer::serve_listener(std::unique_ptr<Listener> listener) {
  std::scoped_lock lock(threads_mu_);
  listener_ = std::move(listener);
  threads_.emplace_back([this] {
    while (!stopping_) {
      auto t = listener_->accept();
      if (!t.is_ok()) break;
      serve(std::move(t).value());
    }
  });
}

void IonServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller: wait for the first to have finished by taking the lock.
    std::scoped_lock lock(threads_mu_);
    return;
  }
  teardown_for_stop();
  if (bb_) bb_->drain_all();  // shutdown drains every descriptor's extents
}

void IonServer::crash_stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    std::scoped_lock lock(threads_mu_);
    return;
  }
  // Same orderly thread/connection teardown as stop() — the "crash" is about
  // state, not threads: once every worker is joined, the burst buffer drops
  // its staged extents unflushed and freezes the journal as the crash image.
  teardown_for_stop();
  if (bb_) bb_->crash_discard();
}

void IonServer::teardown_for_stop() {
  if (listener_) listener_->close();
  {
    std::scoped_lock lock(threads_mu_);
    for (auto& c : conns_) c->stream->close();
  }
  // Join receiver lanes before closing the queue: a lane mid-handler may
  // still depend on workers making progress (BML releases, drain barriers).
  // stopping_ is set and serve() checks it under threads_mu_, so lanes_ is
  // immutable from here on.
  for (auto& lane : lanes_) lane->loop.close();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  queue_.close();
  std::vector<std::jthread> to_join;
  {
    std::scoped_lock lock(threads_mu_);
    to_join.swap(threads_);
  }
  to_join.clear();  // jthread joins on destruction
  // Every producer is joined: discard undeliverable queued replies so their
  // BML leases and burst-buffer pins return before the pool/cache teardown
  // invariants (bml_in_use == 0, cached bytes drainable) are checked.
  {
    std::scoped_lock lock(threads_mu_);
    for (auto& c : conns_) {
      std::scoped_lock lk(c->send_mu);
      abort_send_queue_locked(*c);
    }
  }
}

void IonServer::drain() {
  // Two consecutive quiet observations guard the window between a worker
  // popping a batch and bumping tasks_in_flight_.
  for (int stable = 0; stable < 2;) {
    if (queue_.size() == 0 && tasks_in_flight_.load(std::memory_order_acquire) == 0) {
      ++stable;
    } else {
      stable = 0;
    }
    if (stable < 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (bb_) bb_->drain_all();
}

obs::Snapshot IonServer::metrics() const {
  // Queue/pool state lives outside the registry; mirror it into gauges so
  // one Snapshot is self-contained for rendering and shipping.
  g_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  g_queue_max_depth_.set(static_cast<std::int64_t>(queue_.max_depth()));
  g_queue_batches_.set(static_cast<std::int64_t>(queue_.batches()));
  g_bml_in_use_.set(static_cast<std::int64_t>(pool_.in_use()));
  g_bml_blocked_.set(static_cast<std::int64_t>(pool_.blocked_acquires()));
  g_bml_high_watermark_.set(static_cast<std::int64_t>(pool_.high_watermark()));
  {
    std::scoped_lock lock(degraded_mu_);
    if (degraded_mode_) {
      const auto now = std::chrono::steady_clock::now();
      c_degraded_ns_.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - degraded_since_).count()));
      degraded_since_ = now;
    }
  }
  if (bb_) bb_->refresh_gauges();
  return reg_->snapshot();
}

void IonServer::observe_op(const FrameHeader& req,
                           std::chrono::steady_clock::time_point arrival, const Status& st) {
  const std::uint64_t lat_us = us_since(arrival);
  if (req.op == OpCode::write) {
    h_write_lat_us_.record(lat_us);
  } else if (req.op == OpCode::read) {
    h_read_lat_us_.record(lat_us);
  }
  if (fr_) {
    fr_->record(opcode_name(req.op), req.fd, req.payload_len, lat_us,
                static_cast<int>(st.code()));
  }
}

SchedMeta IonServer::sched_meta(const ClientConn& conn, const FrameHeader& req,
                                std::chrono::steady_clock::time_point arrival) {
  SchedMeta m;
  m.tenant = conn.tenant.load(std::memory_order_relaxed);
  m.klass = req.klass;
  m.deadline_ms = req.deadline_ms;
  m.bytes = req.payload_len;
  m.arrival = arrival;
  return m;
}

bool IonServer::past_deadline(const FrameHeader& req,
                              std::chrono::steady_clock::time_point arrival) {
  if (req.deadline_ms == 0) return false;
  return std::chrono::steady_clock::now() - arrival >= std::chrono::milliseconds(req.deadline_ms);
}

bool IonServer::degraded_now(std::size_t queue_depth) {
  if (cfg_.degraded_high_watermark == 0) return false;
  std::scoped_lock lock(degraded_mu_);
  // Read the clock under the lock: metrics() may have restarted the span.
  const auto now = std::chrono::steady_clock::now();
  if (!degraded_mode_) {
    if (queue_depth >= cfg_.degraded_high_watermark) {
      degraded_mode_ = true;
      degraded_since_ = now;
      c_degraded_enters_.inc();
    }
  } else if (queue_depth <= cfg_.degraded_low_watermark) {
    degraded_mode_ = false;
    c_degraded_ns_.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - degraded_since_).count()));
  }
  return degraded_mode_;
}

// ---------------------------------------------------------------------------
// Receiver path
// ---------------------------------------------------------------------------

void IonServer::lane_loop(Lane& lane) {
  std::vector<Event> ready;
  std::vector<std::byte> scratch(64 * 1024);
  while (true) {
    ready.clear();
    if (!lane.loop.wait(ready)) break;
    lane.c_wakeups.inc();
    if (ready.empty()) continue;  // bare wake
    const auto t0 = std::chrono::steady_clock::now();
    for (const Event& ev : ready) {
      const std::uint64_t key = ev.key & ~kSendKeyBit;
      std::shared_ptr<ClientConn> conn;
      {
        std::scoped_lock lock(lane.mu);
        auto it = lane.conns.find(key);
        if (it == lane.conns.end()) continue;  // dropped earlier this pass
        conn = it->second;
      }
      if ((ev.key & kSendKeyBit) != 0) {
        // Write-readiness shim tick (eventfd): resume the send drain only.
        on_send_ready(*conn);
        continue;
      }
      // Same-fd streams (sockets) deliver EPOLLOUT on the connection key.
      if (ev.writable) on_send_ready(*conn);
      if (!ev.readable) continue;
      // Edge-triggered contract: drain to would_block before re-arming.
      while (true) {
        auto r = conn->stream->read_some(scratch.data(), scratch.size());
        if (!r.is_ok()) {
          if (r.code() == Errc::would_block) break;
          drop_lane_conn(lane, key, *conn, r.code());  // EOF or hard error
          break;
        }
        lane.c_bytes.add(r.value());
        if (Status st = on_bytes(conn, std::span<const std::byte>(scratch.data(), r.value()));
            !st.is_ok()) {
          drop_lane_conn(lane, key, *conn, st.code());
          break;
        }
      }
    }
    lane.h_loop_us.record(us_since(t0));
  }
}

void IonServer::drop_lane_conn(Lane& lane, std::uint64_t key, ClientConn& conn, Errc reason) {
  if (conn.rfd >= 0) lane.loop.remove(conn.rfd);
  {
    // Undeliverable replies die with the connection; their leases return.
    std::scoped_lock lk(conn.send_mu);
    if (conn.shim_registered && conn.wfd >= 0) {
      lane.loop.remove(conn.wfd);
      conn.shim_registered = false;
    }
    abort_send_queue_locked(conn);
  }
  // Dropping a client (corrupt header, protocol violation, peer EOF) must
  // close our endpoint too: an in-process peer blocked in a read only
  // wakes when the shared pipe is marked closed — without this, a client
  // waiting for a reply to its (corrupted, never-executed) request would
  // hang instead of redialing.
  conn.stream->close();
  conn.assembler.reset();
  conn.rx = RxPending{};  // releases any staged BML lease / heap payload
  bool erased = false;
  {
    std::scoped_lock lock(lane.mu);
    erased = lane.conns.erase(key) > 0;
  }
  if (erased) {
    lane.n_conns.fetch_sub(1, std::memory_order_relaxed);
    lane.g_open_connections.set(
        static_cast<std::int64_t>(lane.n_conns.load(std::memory_order_relaxed)));
    if (fr_) fr_->record("lane_drop", lane.index, 0, 0, static_cast<int>(reason));
  }
}

Status IonServer::on_bytes(const std::shared_ptr<ClientConn>& conn,
                           std::span<const std::byte> bytes) {
  return conn->assembler.feed(
      bytes,
      [&](std::span<const std::byte, FrameHeader::kWireSize> hdr) {
        return on_header(*conn, hdr);
      },
      [&] { return on_frame(conn); });
}

Result<FrameAssembler::Sink> IonServer::on_header(
    ClientConn& conn, std::span<const std::byte, FrameHeader::kWireSize> hdr_bytes) {
  auto hdr = FrameHeader::decode(hdr_bytes);
  if (!hdr.is_ok()) {
    // A corrupted header is unrecoverable on this connection: the framing
    // is lost (payload_len is untrustworthy), so drop the client and let
    // its reconnect-and-replay path recover. Protocol violations (valid
    // CRC, bad fields) are a hostile or broken peer — also dropped.
    if (hdr.code() == Errc::checksum_error) {
      c_header_crc_errors_.inc();
      if (fr_) fr_->record("hdr_crc_error", -1, 0, 0, static_cast<int>(hdr.code()));
    } else {
      c_frames_rejected_.inc();
      if (fr_) fr_->record("frame_rejected", -1, 0, 0, static_cast<int>(hdr.code()));
    }
    IOFWD_LOG_WARN("dropping client: %s", hdr.status().to_string().c_str());
    return hdr.status();
  }
  const FrameHeader req = hdr.value();
  const auto arrival = std::chrono::steady_clock::now();
  if (req.type != MsgType::request) {
    c_frames_rejected_.inc();
    IOFWD_LOG_WARN("unexpected frame type from client");
    return Status(Errc::protocol_error, "unexpected frame type");
  }
  // Ops that carry no request payload must say so: a nonzero payload_len
  // would desynchronize the stream (those bytes were never sent, or worse,
  // are a smuggled frame). `read` passes the requested length here and
  // `open`/`write` legitimately carry payloads.
  if (req.payload_len != 0 &&
      (req.op == OpCode::close || req.op == OpCode::fsync || req.op == OpCode::fstat ||
       req.op == OpCode::shutdown || req.op == OpCode::hello || req.op == OpCode::ping)) {
    c_frames_rejected_.inc();
    IOFWD_LOG_WARN("dropping client: unexpected payload on %s", opcode_name(req.op));
    return Status(Errc::protocol_error, "unexpected payload");
  }
  // hello is control-plane: it gets its own counter and stays out of
  // server.ops so op accounting still means "forwarded I/O calls".
  // Protocol chatter (hello negotiation, ping probes) is not forwarded I/O.
  if (req.op != OpCode::hello && req.op != OpCode::ping) c_ops_.inc();

  RxPending& rx = conn.rx;
  rx = RxPending{};
  rx.req = req;
  rx.arrival = arrival;

  FrameAssembler::Sink sink;
  switch (req.op) {
    case OpCode::open:
      rx.staging = RxPending::Staging::heap;
      rx.heap.resize(req.payload_len);
      sink = {req.payload_len, rx.heap.data()};
      break;
    case OpCode::write: {
      // Staging space comes from the BML pool under a bounded wait, chosen
      // before the payload bytes are consumed (same ordering as the old
      // blocking receiver, so backpressure semantics are unchanged):
      // exhaustion degrades to a BML-less synchronous pass-through instead
      // of blocking the lane forever.
      auto buf = pool_.try_acquire(req.payload_len);
      if (!buf.is_ok() && buf.code() == Errc::would_block) {
        buf = cfg_.bml_wait_ms > 0
                  ? pool_.acquire_for(req.payload_len,
                                      std::chrono::milliseconds(cfg_.bml_wait_ms))
                  : pool_.acquire(req.payload_len);
      }
      if (buf.is_ok()) {
        rx.staging = RxPending::Staging::bml;
        rx.bml = std::move(buf).value();
        sink = {req.payload_len, rx.bml.data()};
      } else if (buf.code() == Errc::timed_out) {
        // Degraded mode: receive into plain heap memory and execute inline,
        // synchronously — slower, but bounded and correct.
        rx.staging = RxPending::Staging::heap;
        rx.degraded = true;
        rx.heap.resize(req.payload_len);
        sink = {req.payload_len, rx.heap.data()};
      } else {
        // Oversize request: swallow the payload without storing it, bounce
        // at frame completion.
        rx.staging = RxPending::Staging::discard;
        rx.bounce = buf.status();
        sink = {req.payload_len, nullptr};
      }
      break;
    }
    default:
      // read's payload_len is the requested length, not wire bytes; the
      // zero-payload ops were validated above.
      sink = {0, nullptr};
      break;
  }
  return sink;
}

Status IonServer::on_frame(const std::shared_ptr<ClientConn>& conn) {
  RxPending& rx = conn->rx;
  const FrameHeader req = rx.req;
  switch (req.op) {
    case OpCode::hello:
      handle_hello(*conn, req);
      break;
    case OpCode::ping:
      handle_ping(*conn, req);
      break;
    case OpCode::open:
      handle_open(*conn, req, rx.heap, rx.arrival);
      break;
    case OpCode::write:
      handle_write(conn, rx);
      break;
    case OpCode::read:
      handle_read(conn, req, rx.arrival);
      break;
    case OpCode::fsync:
      handle_fsync(*conn, req, rx.arrival);
      break;
    case OpCode::fstat:
      handle_fstat(*conn, req, rx.arrival);
      break;
    case OpCode::close:
      handle_close(*conn, req, rx.arrival);
      break;
    case OpCode::shutdown:
      enqueue_reply(*conn, req, Status::ok());
      // The goodbye must beat the teardown: drop_lane_conn closes the stream
      // as soon as we return shutdown, so flush the queue first.
      flush_send_queue_blocking(*conn);
      rx = RxPending{};
      return Status(Errc::shutdown, "client requested shutdown");
  }
  rx = RxPending{};  // drop payload staging before the next frame
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Reply path (DESIGN.md §15)
// ---------------------------------------------------------------------------

void IonServer::enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status) {
  enqueue_reply(conn, req, std::move(status), ReplyPayload{});
}

void IonServer::enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status,
                              ReplyPayload payload, bool staged) {
  FrameHeader rep;
  rep.type = MsgType::reply;
  rep.op = req.op;
  rep.fd = req.fd;
  rep.seq = req.seq;
  rep.offset = req.offset;
  rep.status = static_cast<std::int32_t>(status.code());
  rep.payload_len = payload.bytes.size();
  if (staged) rep.flags |= FrameHeader::kFlagStaged;
  rep.version = conn.version.load(std::memory_order_relaxed);
  // The CRC is computed straight from the lease bytes — the single pass the
  // payload takes through the CPU before the kernel gathers it.
  if (rep.version >= 1 && !payload.bytes.empty()) rep.stamp_payload_crc(payload.bytes);

  SendEntry e;
  rep.encode(std::span<std::byte, FrameHeader::kWireSize>(e.hdr));
  if (payload.copy) {
    e.copy.assign(payload.bytes.begin(), payload.bytes.end());
    e.payload = e.copy;
    c_reply_copy_bytes_.add(e.copy.size());
  } else {
    e.bml = std::move(payload.bml);
    e.bb_pin = std::move(payload.bb_pin);
    e.payload = payload.bytes;
  }

  std::scoped_lock lk(conn.send_mu);
  if (conn.peer_gone) {
    c_reply_peer_gone_.inc();
    return;  // entry destructor releases the lease
  }
  if (conn.sendq_bytes + e.total() > cfg_.send_queue_bytes) {
    // The peer has stopped reading and the bound is hit: drop the client
    // rather than buffer without limit. Closing our end wakes the lane via
    // the read side (EOF edge), which reaps the registration.
    c_reply_queue_full_.inc();
    abort_send_queue_locked(conn);
    conn.stream->close();
    return;
  }
  const std::size_t total = e.total();
  conn.sendq.push_back(std::move(e));
  conn.sendq_bytes += total;
  conn.lane->note_send_queued(static_cast<std::int64_t>(total));
  c_replies_enqueued_.inc();
  drain_send_queue_locked(conn);
}

void IonServer::drain_send_queue_locked(ClientConn& conn) {
  Lane& lane = *conn.lane;
  while (!conn.sendq.empty()) {
    // Gather the front entries' unsent header/payload slices.
    std::array<std::span<const std::byte>, kMaxGatherSpans> spans;
    std::size_t nspans = 0;
    for (const SendEntry& e : conn.sendq) {
      if (nspans + 2 > spans.size()) break;
      if (e.sent < FrameHeader::kWireSize) {
        spans[nspans++] = std::span<const std::byte>(e.hdr).subspan(e.sent);
      }
      const std::size_t psent =
          e.sent > FrameHeader::kWireSize ? e.sent - FrameHeader::kWireSize : 0;
      if (psent < e.payload.size()) spans[nspans++] = e.payload.subspan(psent);
    }
    lane.c_send_writev_calls.inc();
    auto r = conn.stream->writev_some(std::span<const std::span<const std::byte>>(
        spans.data(), nspans));
    if (!r.is_ok() || r.value() == 0) {
      if (r.is_ok() || r.code() == Errc::would_block) {
        arm_write_interest_locked(conn);
        return;
      }
      abort_send_queue_locked(conn);
      conn.stream->close();
      return;
    }
    std::size_t n = r.value();
    lane.c_send_bytes.add(n);
    conn.sendq_bytes -= n;
    lane.note_send_queued(-static_cast<std::int64_t>(n));
    while (n > 0) {
      SendEntry& e = conn.sendq.front();
      const std::size_t take = std::min(n, e.total() - e.sent);
      e.sent += take;
      n -= take;
      if (e.sent == e.total()) {
        c_replies_sent_.inc();
        c_bytes_out_.add(e.payload.size());
        conn.sendq.pop_front();  // releases the BML lease / bb pin
      }
    }
  }
  // Queue drained: same-fd connections drop write interest so an idle open
  // socket stops waking the lane on every send-buffer transition.
  if (conn.epollout_armed && conn.wfd == conn.rfd) {
    if (lane.loop.modify(conn.rfd, conn.lane_key, Interest::read).is_ok()) {
      conn.epollout_armed = false;
    }
  }
}

void IonServer::arm_write_interest_locked(ClientConn& conn) {
  Lane& lane = *conn.lane;
  lane.c_send_would_blocks.inc();
  if (conn.wfd == conn.rfd) {
    // Socket-style: one fd carries both directions; widen the registration.
    // EPOLL_CTL_MOD re-evaluates readiness, so a buffer that drained between
    // our would_block and this call still delivers an immediate EPOLLOUT.
    if (conn.epollout_armed) return;
    if (lane.loop.modify(conn.rfd, conn.lane_key, Interest::read_write).is_ok()) {
      conn.epollout_armed = true;
      return;
    }
  } else {
    // Shim-style (InProcPipe): a separate eventfd ticks when the full pipe
    // gains space. Registered once, read-interest, keyed with the send bit.
    if (conn.shim_registered) return;
    if (lane.loop.add(conn.wfd, conn.lane_key | kSendKeyBit).is_ok()) {
      conn.shim_registered = true;
      return;
    }
  }
  // Could not arm (fd limit?): the reply cannot ever complete — drop it.
  abort_send_queue_locked(conn);
  conn.stream->close();
}

void IonServer::abort_send_queue_locked(ClientConn& conn) {
  if (!conn.sendq.empty()) {
    c_reply_peer_gone_.add(conn.sendq.size());
    if (conn.lane != nullptr) {
      conn.lane->note_send_queued(-static_cast<std::int64_t>(conn.sendq_bytes));
    }
  }
  conn.sendq.clear();  // SendEntry destructors release leases and pins
  conn.sendq_bytes = 0;
  conn.peer_gone = true;
}

void IonServer::on_send_ready(ClientConn& conn) {
  std::scoped_lock lk(conn.send_mu);
  if (conn.peer_gone || conn.sendq.empty()) return;
  drain_send_queue_locked(conn);
}

void IonServer::flush_send_queue_blocking(ClientConn& conn) {
  while (!stopping_) {
    {
      std::scoped_lock lk(conn.send_mu);
      if (conn.sendq.empty() || conn.peer_gone) return;
      drain_send_queue_locked(conn);
      if (conn.sendq.empty() || conn.peer_gone) return;
    }
    // Still blocked: wait for write readiness off-lock. Same-fd streams wait
    // for POLLOUT on the fd itself; shim fds tick readable.
    ::pollfd p{};
    p.fd = conn.wfd;
    p.events = static_cast<short>(conn.wfd == conn.rfd ? POLLOUT : POLLIN);
    (void)::poll(&p, 1, 10);
  }
}

Status IonServer::consume_deferred(int fd, bool drain) {
  std::unique_lock lock(db_mu_);
  if (drain) db_cv_.wait(lock, [&] { return db_.in_flight(fd) == 0; });
  Status st = db_.consume_pending_error(fd);
  if (!st.is_ok() && st.code() != Errc::bad_descriptor) {
    c_deferred_errors_.inc();
  }
  return st;
}

Result<IonServer::Staged> IonServer::begin_staged(int fd) {
  std::scoped_lock lock(db_mu_);
  Status st = db_.consume_pending_error(fd);
  if (!st.is_ok()) {
    if (st.code() != Errc::bad_descriptor) c_deferred_errors_.inc();
    return st;
  }
  const bool alone = db_.in_flight(fd) == 0;
  return Staged{*db_.begin_op(fd), alone};  // the gate passed, so fd is open
}

void IonServer::note_completed(int fd, std::uint64_t seq, const Status& st) {
  std::scoped_lock lock(db_mu_);
  db_.complete_op(fd, seq, st);
  db_cv_.notify_all();
}

void IonServer::handle_hello(ClientConn& conn, const FrameHeader& req) {
  // Version negotiation (DESIGN.md §12): the client advertises its highest
  // supported version; both sides settle on the minimum. The reply header's
  // version field carries the verdict. A v0 client never sends hello and
  // the connection simply stays at version 0 (no payload checksums).
  const std::uint16_t negotiated = std::min(req.version, cfg_.max_wire_version);
  conn.version.store(negotiated, std::memory_order_relaxed);
  // hello carries no file offset; the field doubles as the tenant (client/
  // job) id that keys fair-share scheduling and the QoS buckets (§17). A v0
  // client never says hello and stays tenant 0.
  conn.tenant.store(req.offset, std::memory_order_relaxed);
  c_hellos_.inc();
  enqueue_reply(conn, req, Status::ok());
}

void IonServer::handle_ping(ClientConn& conn, const FrameHeader& req) {
  // Liveness probe (DESIGN.md §16): answered inline on the receiver, never
  // queued behind forwarded I/O — a wedged work queue still answers pings,
  // which is exactly what the health layer wants to distinguish "slow" from
  // "gone". No descriptor, no payload, no deferred-error gate.
  enqueue_reply(conn, req, Status::ok());
}

void IonServer::handle_open(ClientConn& conn, const FrameHeader& req,
                            std::span<const std::byte> path_bytes,
                            std::chrono::steady_clock::time_point arrival) {
  if (!req.payload_crc_ok(path_bytes)) {
    // Framing is intact (the header CRC passed), so the connection is still
    // usable: bounce just this op and let the client replay it.
    c_payload_crc_errors_.inc();
    if (fr_) fr_->record("payload_crc_error", req.fd, req.payload_len, 0,
                         static_cast<int>(Errc::checksum_error));
    const Status st(Errc::checksum_error, "open path crc mismatch");
    observe_op(req, arrival, st);
    enqueue_reply(conn, req, st);
    return;
  }
  std::string path;
  if (!path_bytes.empty()) {
    path.assign(reinterpret_cast<const char*>(path_bytes.data()), path_bytes.size());
  }
  Status st;
  {
    std::scoped_lock lock(db_mu_);
    if (!db_.open_descriptor(req.fd)) {
      st = Status(Errc::invalid_argument, "fd already open");
    }
  }
  if (st.is_ok()) {
    st = backend_->open(req.fd, path);
    if (!st.is_ok()) {
      std::scoped_lock lock(db_mu_);
      (void)db_.close_descriptor(req.fd);
    }
  }
  observe_op(req, arrival, st);
  enqueue_reply(conn, req, st);
}

void IonServer::handle_close(ClientConn& conn, const FrameHeader& req,
                             std::chrono::steady_clock::time_point arrival) {
  std::optional<obs::RuntimeTracer::Span> sp;
  if (tracer_ != nullptr) sp.emplace(tracer_->span(opcode_name(req.op), "op", kInlineLane));
  // Close drains: all async operations must land so the final status
  // (including deferred errors) is accurate.
  Status deferred;
  {
    std::unique_lock lock(db_mu_);
    db_cv_.wait(lock, [&] { return db_.in_flight(req.fd) == 0; });
    deferred = db_.close_descriptor(req.fd);
  }
  if (!deferred.is_ok() && deferred.code() != Errc::bad_descriptor) {
    c_deferred_errors_.inc();
  }
  Status be = backend_->close(req.fd);
  const Status final_st = deferred.is_ok() ? be : deferred;
  observe_op(req, arrival, final_st);
  enqueue_reply(conn, req, final_st);
}

void IonServer::handle_fsync(ClientConn& conn, const FrameHeader& req,
                             std::chrono::steady_clock::time_point arrival) {
  std::optional<obs::RuntimeTracer::Span> sp;
  if (tracer_ != nullptr) sp.emplace(tracer_->span(opcode_name(req.op), "op", kInlineLane));
  if (Status deferred = consume_deferred(req.fd, /*drain=*/true); !deferred.is_ok()) {
    observe_op(req, arrival, deferred);
    enqueue_reply(conn, req, deferred);
    return;
  }
  if (past_deadline(req, arrival)) {
    // The drain barrier outlived the op's budget: bounce without executing.
    c_deadline_expired_.inc();
    const Status st(Errc::timed_out, "deadline expired in drain");
    observe_op(req, arrival, st);
    enqueue_reply(conn, req, st);
    return;
  }
  const Status st = backend_->fsync(req.fd);
  observe_op(req, arrival, st);
  enqueue_reply(conn, req, st);
}

void IonServer::handle_fstat(ClientConn& conn, const FrameHeader& req,
                             std::chrono::steady_clock::time_point arrival) {
  // Attribute queries are synchronous (Sec. IV): drain in-flight async
  // writes so the size is accurate, surface deferred errors first.
  if (Status deferred = consume_deferred(req.fd, /*drain=*/true); !deferred.is_ok()) {
    observe_op(req, arrival, deferred);
    enqueue_reply(conn, req, deferred);
    return;
  }
  if (past_deadline(req, arrival)) {
    c_deadline_expired_.inc();
    const Status st(Errc::timed_out, "deadline expired in drain");
    observe_op(req, arrival, st);
    enqueue_reply(conn, req, st);
    return;
  }
  auto sz = backend_->size(req.fd);
  if (!sz.is_ok()) {
    observe_op(req, arrival, sz.status());
    enqueue_reply(conn, req, sz.status());
    return;
  }
  std::byte payload[8];
  const std::uint64_t v = sz.value();
  std::memcpy(payload, &v, 8);
  observe_op(req, arrival, Status::ok());
  // The 8-byte size lives on this stack frame: the one reply whose payload
  // is copied onto the queue (counted in server.reply.payload_copy_bytes).
  ReplyPayload p;
  p.bytes = std::span<const std::byte>(payload, 8);
  p.copy = true;
  enqueue_reply(conn, req, Status::ok(), std::move(p));
}

void IonServer::handle_write(const std::shared_ptr<ClientConn>& conn, RxPending& rx) {
  const FrameHeader req = rx.req;
  const auto arrival = rx.arrival;
  if (rx.staging == RxPending::Staging::discard) {
    // Oversize request: the assembler already swallowed the payload; bounce.
    observe_op(req, arrival, rx.bounce);
    enqueue_reply(*conn, req, rx.bounce);
    return;
  }
  c_bytes_in_.add(req.payload_len);
  const std::span<const std::byte> data =
      rx.staging == RxPending::Staging::bml
          ? std::span<const std::byte>(rx.bml.data(), req.payload_len)
          : std::span<const std::byte>(rx.heap.data(), rx.heap.size());

  // Verify the payload checksum before the bytes reach the BML staging path
  // or the descriptor database — a flipped bit bounces here, synchronously,
  // so the staged early-ack can never acknowledge corrupt data.
  if (!req.payload_crc_ok(data)) {
    rx.bml.release();
    c_payload_crc_errors_.inc();
    if (fr_) fr_->record("payload_crc_error", req.fd, req.payload_len, 0,
                         static_cast<int>(Errc::checksum_error));
    const Status st(Errc::checksum_error, "write payload crc mismatch");
    observe_op(req, arrival, st);
    enqueue_reply(*conn, req, st);
    return;
  }

  if (rx.degraded) {
    // Degraded pass-through (BML wait expired at header time): execute
    // inline, synchronously — slower, but bounded and correct.
    c_bml_timeouts_.inc();
    c_degraded_passthrough_.inc();
    if (cfg_.exec == ExecModel::work_queue_async) {
      if (Status deferred = consume_deferred(req.fd); !deferred.is_ok()) {
        observe_op(req, arrival, deferred);
        enqueue_reply(*conn, req, deferred);
        return;
      }
    }
    std::optional<obs::RuntimeTracer::Span> sp;
    if (tracer_ != nullptr) sp.emplace(tracer_->span("write (passthrough)", "op", kInlineLane));
    const Status st = do_write(req, data);
    observe_op(req, arrival, st);
    enqueue_reply(*conn, req, st);
    return;
  }

  // Deferred-error gate (async mode): surface the oldest unreported error
  // instead of executing this operation. The same db_mu_ hold begins the op
  // in the descriptor DB for the staged path below.
  Staged staged;
  if (cfg_.exec == ExecModel::work_queue_async) {
    auto begun = begin_staged(req.fd);
    if (!begun.is_ok()) {
      observe_op(req, arrival, begun.status());
      enqueue_reply(*conn, req, begun.status());
      return;
    }
    staged = begun.value();
  }

  Task t;
  t.conn = conn;
  t.req = req;
  t.payload = std::move(rx.bml);
  t.arrival = arrival;

  const SchedMeta meta = sched_meta(*conn, req, arrival);

  // Per-tenant admission (§17): an over-budget write is demoted to sync
  // staging — same lever as the overload hysteresis below, but keyed to the
  // ONE tenant that blew its token bucket, so only that tenant self-throttles.
  bool throttled = qos_ && !qos_->admit(meta.tenant, req.payload_len);
  if (cfg_.qos_fault_hook && cfg_.qos_fault_hook(meta.tenant, req.payload_len)) {
    throttled = true;
  }

  // Overload hysteresis: past the queue-depth high watermark, staged writes
  // are acknowledged at completion (sync staging) so clients self-throttle.
  ExecModel exec = cfg_.exec;
  const std::size_t queue_depth = queue_.size();
  if (exec == ExecModel::work_queue_async && (throttled || degraded_now(queue_depth))) {
    exec = ExecModel::work_queue;
    c_degraded_sync_writes_.inc();
    // Acked at completion, so not a staged op: retire its seq unreported.
    note_completed(req.fd, staged.seq, Status::ok());
  }

  if (exec == ExecModel::thread_per_client) {
    execute_task(t, kInlineLane);  // inline, synchronous
    return;
  }
  t.reply_on_completion = exec == ExecModel::work_queue;
  t.record_in_db = exec == ExecModel::work_queue_async;
  t.db_seq = staged.seq;

  // Non-blocking fast path (DESIGN.md §13): when the backend can finish the
  // write without waiting, finish it here and skip the queue handoff. Only
  // when nothing could be overtaken — no other op of this descriptor in
  // flight and no queued work of any tenant — and with no filter chain,
  // whose copies are worker work. An op whose deadline already ran out
  // queues, so a worker bounces it as before. The reply goes out after the
  // attempt, so drain() and the fsync/close barriers keep their meaning.
  if (staged.alone && filters_.empty() && queue_depth == 0 && !past_deadline(req, arrival)) {
    auto r = backend_->try_write(req.fd, req.offset,
                                 std::span<const std::byte>(t.payload.data(), req.payload_len));
    if (r.is_ok() || r.code() != Errc::would_block) {
      finish_task(t, r.is_ok() ? Status::ok() : r.status());
      if (t.record_in_db) enqueue_reply(*conn, req, Status::ok(), {}, /*staged=*/true);
      return;
    }
  }

  if (t.record_in_db) {
    // Early acknowledgement: the application is unblocked as soon as the
    // payload sits in the BML buffer.
    enqueue_reply(*conn, req, Status::ok(), {}, /*staged=*/true);
    if (!queue_.push(std::move(t), meta)) {
      // Server stopping: mark the op completed so close-drain cannot hang.
      note_completed(req.fd, staged.seq, Status(Errc::shutdown, "server stopping"));
    }
  } else if (!queue_.push(std::move(t), meta)) {
    enqueue_reply(*conn, req, Status(Errc::shutdown, "server stopping"));
  }
  if (tracer_ != nullptr) {
    tracer_->counter("queue_depth", static_cast<double>(queue_.size()));
    tracer_->counter("bml_in_use", static_cast<double>(pool_.in_use()));
  }
}

void IonServer::handle_read(const std::shared_ptr<ClientConn>& conn, const FrameHeader& req,
                            std::chrono::steady_clock::time_point arrival) {
  if (cfg_.exec == ExecModel::work_queue_async) {
    // Read barrier: in-flight writes on this descriptor land first.
    if (Status deferred = consume_deferred(req.fd, /*drain=*/true); !deferred.is_ok()) {
      observe_op(req, arrival, deferred);
      enqueue_reply(*conn, req, deferred);
      return;
    }
  }
  Task t;
  t.conn = conn;
  t.req = req;
  t.reply_on_completion = true;
  t.arrival = arrival;
  if (cfg_.exec == ExecModel::thread_per_client) {
    execute_task(t, kInlineLane);
    return;
  }
  // Non-blocking fast path, as for writes: past the barrier nothing of this
  // descriptor is in flight, so only queued work of others could be
  // overtaken. The lease is taken without waiting too.
  if (queue_.size() == 0 && !past_deadline(req, arrival)) {
    if (auto buf = pool_.try_acquire(req.payload_len); buf.is_ok()) {
      Buffer out = std::move(buf).value();
      auto r = backend_->try_read(req.fd, req.offset,
                                  std::span<std::byte>(out.data(), req.payload_len));
      if (r.is_ok() || r.code() != Errc::would_block) {
        finish_read(*conn, req, arrival, r, std::move(out));
        return;
      }
    }
  }
  if (!queue_.push(std::move(t), sched_meta(*conn, req, arrival))) {
    enqueue_reply(*conn, req, Status(Errc::shutdown, "server stopping"));
  }
}

// ---------------------------------------------------------------------------
// Execution path (receiver thread or worker pool)
// ---------------------------------------------------------------------------

void IonServer::worker_loop(int lane) {
  if (tracer_ != nullptr) tracer_->set_thread_name(lane, "worker " + std::to_string(lane));
  while (true) {
    auto batch = queue_.pop_batch(cfg_.multiplex_depth, cfg_.balanced_batches);
    if (batch.empty()) return;  // queue closed and drained
    tasks_in_flight_.fetch_add(batch.size(), std::memory_order_acq_rel);
    if (tracer_ != nullptr) {
      tracer_->counter("queue_depth", static_cast<double>(queue_.size()));
    }
    for (auto& t : batch) {
      h_queue_wait_us_.record(us_since(t.arrival));
      execute_task(t, lane);
      tasks_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

Status IonServer::do_write(const FrameHeader& req, std::span<const std::byte> data) {
  if (!filters_.empty()) {
    // Data-filtering offload: transform on the ION's otherwise idle cycles,
    // then write the (possibly reduced) payload at the mapped offset.
    std::vector<std::byte> transformed(data.begin(), data.end());
    const std::uint64_t before = transformed.size();
    Status st = filters_.apply(req.fd, req.offset, transformed);
    if (!st.is_ok()) return st;
    c_filter_bytes_in_.add(before);
    c_filter_bytes_out_.add(transformed.size());
    auto r = backend_->write(req.fd, filters_.map_offset(req.offset), transformed);
    return r.is_ok() ? Status::ok() : r.status();
  }
  auto r = backend_->write(req.fd, req.offset, data);
  return r.is_ok() ? Status::ok() : r.status();
}

void IonServer::finish_task(Task& t, const Status& st) {
  t.payload.release();  // back to the BML pool as early as possible
  // Observe before note_completed: completion releases fsync/close drain
  // barriers, so recording first keeps op metrics and flight-recorder
  // entries ordered before anything the barrier unblocks.
  observe_op(t.req, t.arrival, st);
  if (t.record_in_db) note_completed(t.req.fd, t.db_seq, st);
  if (t.reply_on_completion || cfg_.exec == ExecModel::thread_per_client) {
    enqueue_reply(*t.conn, t.req, st);
  }
}

void IonServer::finish_read(ClientConn& conn, const FrameHeader& req,
                            std::chrono::steady_clock::time_point arrival,
                            const Result<std::uint64_t>& r, Buffer out) {
  observe_op(req, arrival, r.status());
  if (!r.is_ok()) {
    enqueue_reply(conn, req, r.status());
    return;
  }
  // The BML lease rides the queue with the reply: the backend read landed in
  // `out`, the entry views it, and the pool gets the buffer back only after
  // the kernel has gathered the last byte. No reply memcpy.
  ReplyPayload p;
  p.bytes = std::span<const std::byte>(out.data(), r.value());
  p.bml = std::move(out);
  enqueue_reply(conn, req, Status::ok(), std::move(p));
}

void IonServer::execute_task(Task& t, int lane) {
  std::optional<obs::RuntimeTracer::Span> sp;
  if (tracer_ != nullptr) sp.emplace(tracer_->span(opcode_name(t.req.op), "op", lane));
  // Deadline enforcement: an op whose budget ran out while queued bounces
  // with timed_out without touching the backend. For async-staged writes the
  // bounce follows the deferred-error path (the staged ack already went out).
  if (past_deadline(t.req, t.arrival)) {
    c_deadline_expired_.inc();
    finish_task(t, Status(Errc::timed_out, "deadline expired in queue"));
    return;
  }
  if (t.req.op == OpCode::write) {
    Status st;
    if (!filters_.empty()) {
      // The filter path copies out of BML anyway; release the lease early.
      std::vector<std::byte> data(t.payload.data(), t.payload.data() + t.req.payload_len);
      t.payload.release();
      st = do_write(t.req, data);
    } else {
      st = do_write(t.req,
                    std::span<const std::byte>(t.payload.data(), t.req.payload_len));
    }
    finish_task(t, st);
    return;
  }
  assert(t.req.op == OpCode::read);
  // Zero-copy fast path: a read fully covered by one staged extent pins the
  // extent's lease and replies straight out of the cache — the payload is
  // never copied, and the pin keeps the bytes alive until the lane's last
  // writev for this reply is accepted (DESIGN.md §15).
  if (bb_ != nullptr) {
    if (auto pin = bb_->read_pinned(t.req.fd, t.req.offset, t.req.payload_len)) {
      observe_op(t.req, t.arrival, Status::ok());
      ReplyPayload p;
      p.bytes = pin->bytes;
      p.bb_pin = std::move(pin->lease);
      enqueue_reply(*t.conn, t.req, Status::ok(), std::move(p));
      return;
    }
  }
  auto buf = pool_.acquire(t.req.payload_len);
  if (!buf.is_ok()) {
    observe_op(t.req, t.arrival, buf.status());
    enqueue_reply(*t.conn, t.req, buf.status());
    return;
  }
  Buffer out = std::move(buf).value();
  auto r = backend_->read(t.req.fd, t.req.offset,
                          std::span<std::byte>(out.data(), t.req.payload_len));
  finish_read(*t.conn, t.req, t.arrival, r, std::move(out));
}

}  // namespace iofwd::rt
