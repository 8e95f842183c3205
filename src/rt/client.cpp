#include "rt/client.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

namespace iofwd::rt {

Client::Client(std::unique_ptr<ByteStream> stream, ClientConfig cfg, StreamFactory factory)
    : stream_(std::move(stream)),
      cfg_(cfg),
      factory_(std::move(factory)),
      owned_registry_(cfg.registry != nullptr ? nullptr
                                              : std::make_unique<obs::MetricRegistry>()),
      reg_(cfg.registry != nullptr ? cfg.registry : owned_registry_.get()),
      c_reconnects_(reg_->counter("client.reconnects")),
      c_replays_(reg_->counter("client.replays")),
      c_timeouts_(reg_->counter("client.timeouts")),
      c_giveups_(reg_->counter("client.giveups")),
      c_header_crc_errors_(reg_->counter("client.integrity.header_crc_errors")),
      c_payload_crc_errors_(reg_->counter("client.integrity.payload_crc_errors")),
      c_request_bounces_(reg_->counter("client.integrity.request_bounces")) {
  cfg_.reconnect_attempts = std::max(0, cfg_.reconnect_attempts);
  cfg_.window = std::max(1, cfg_.window);
  if (cfg_.roundtrip_timeout_ms > 0) {
    wd_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

Client::~Client() {
  if (wd_thread_.joinable()) {
    {
      std::scoped_lock lock(wd_mu_);
      wd_quit_ = true;
    }
    wd_cv_.notify_all();
    wd_thread_.join();
  }
  if (stream_) stream_->close();
}

// ---------------------------------------------------------------------------
// Watchdog: bounds a roundtrip by closing the stream from the outside, which
// unblocks the reader with `shutdown` (both transports guarantee this).
// ---------------------------------------------------------------------------

void Client::watchdog_loop() {
  std::unique_lock lock(wd_mu_);
  for (;;) {
    wd_cv_.wait(lock, [&] { return wd_quit_ || wd_armed_; });
    if (wd_quit_) return;
    if (wd_cv_.wait_until(lock, wd_deadline_, [&] { return wd_quit_ || !wd_armed_; })) {
      if (wd_quit_) return;
      continue;  // disarmed in time
    }
    // Deadline passed with the roundtrip still in flight: kill the stream.
    wd_fired_ = true;
    wd_armed_ = false;
    if (wd_target_ != nullptr) wd_target_->close();
  }
}

void Client::watchdog_arm() {
  if (cfg_.roundtrip_timeout_ms == 0) return;
  {
    std::scoped_lock lock(wd_mu_);
    wd_armed_ = true;
    wd_fired_ = false;
    wd_deadline_ =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(cfg_.roundtrip_timeout_ms);
    wd_target_ = stream_.get();
  }
  wd_cv_.notify_all();
}

bool Client::watchdog_disarm() {
  if (cfg_.roundtrip_timeout_ms == 0) return false;
  bool fired;
  {
    std::scoped_lock lock(wd_mu_);
    wd_armed_ = false;
    fired = wd_fired_;
    wd_fired_ = false;
    wd_target_ = nullptr;
  }
  wd_cv_.notify_all();
  return fired;
}

Status Client::watched(Status st) {
  if (watchdog_disarm() && !st.is_ok()) {
    c_timeouts_.inc();
    return Status(Errc::timed_out, "roundtrip timed out");
  }
  return st;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

bool Client::connection_lost(Errc e) {
  // Transport-level failures: the reply (if any) is unrecoverable on this
  // connection, but every forwarded op is idempotent, so a fresh connection
  // may replay it. A checksum mismatch is the same class of fault — the
  // bytes, not the peer, are wrong — so corrupted replies are also redialed
  // and replayed. Protocol violations are not retried.
  return e == Errc::not_connected || e == Errc::shutdown || e == Errc::io_error ||
         e == Errc::timed_out || e == Errc::checksum_error;
}

Status Client::send_frame_locked(FrameHeader h, std::span<const std::byte> payload) {
  if (!stream_) return Status(Errc::not_connected, "no stream");
  if (h.op == OpCode::hello) {
    h.version = cfg_.max_wire_version;  // advertise our best; server clamps
  } else {
    h.version = neg_version_;
    // Priority classes ride the v1 reserved byte; a v0 conversation must
    // keep it zero (the server rejects nonzero reserved bits from v0 peers).
    if (neg_version_ >= 1) {
      h.klass = std::min(cfg_.priority, kMaxPriorityClass);
    }
    if (neg_version_ >= 1 && !payload.empty()) h.stamp_payload_crc(payload);
  }

  watchdog_arm();
  std::byte buf[FrameHeader::kWireSize];
  h.encode(std::span<std::byte, FrameHeader::kWireSize>(buf));
  Status st = stream_->write_all(buf, sizeof buf);
  if (st.is_ok() && !payload.empty()) st = stream_->write_all(payload.data(), payload.size());
  return watched(st);
}

Result<Client::Reply> Client::read_reply_locked() {
  if (!stream_) return Status(Errc::not_connected, "no stream");
  watchdog_arm();
  std::byte rep_buf[FrameHeader::kWireSize];
  if (Status st = stream_->read_exact(rep_buf, sizeof rep_buf); !st.is_ok()) return watched(st);
  auto hdr = FrameHeader::decode(std::span<const std::byte, FrameHeader::kWireSize>(rep_buf));
  if (!hdr.is_ok()) {
    if (hdr.code() == Errc::checksum_error) c_header_crc_errors_.inc();
    return watched(hdr.status());
  }
  Reply r;
  r.header = hdr.value();
  if (r.header.type != MsgType::reply) {
    return watched(Status(Errc::protocol_error, "mismatched reply"));
  }
  if (r.header.payload_len > 0) {
    r.payload.resize(r.header.payload_len);
    if (Status st = stream_->read_exact(r.payload.data(), r.payload.size()); !st.is_ok()) {
      return watched(st);
    }
  }
  if (Status st = watched(Status::ok()); !st.is_ok()) return st;
  // Verify the reply payload against its checksum (flag-driven: a v0 server
  // never sets kFlagPayloadCrc and is accepted unchecked). A mismatch is a
  // transport fault — the caller redials and replays the idempotent op.
  if (!r.header.payload_crc_ok(r.payload)) {
    c_payload_crc_errors_.inc();
    return Status(Errc::checksum_error, "reply payload crc mismatch");
  }
  return r;
}

Result<Client::Reply> Client::roundtrip_once(FrameHeader req, std::span<const std::byte> payload) {
  req.type = MsgType::request;
  req.seq = next_seq_++;
  if (Status st = send_frame_locked(req, payload); !st.is_ok()) return st;
  auto r = read_reply_locked();
  if (r.is_ok() && r.value().header.seq != req.seq) {
    return Status(Errc::protocol_error, "mismatched reply");
  }
  return r;
}

Status Client::hello_locked() {
  if (hello_done_ || cfg_.max_wire_version == 0) return Status::ok();
  FrameHeader req;
  req.op = OpCode::hello;
  req.deadline_ms = cfg_.deadline_ms;
  // hello has no file offset; the field carries the tenant id (§17).
  req.offset = cfg_.tenant;
  auto r = roundtrip_once(req, {});
  if (!r.is_ok()) return r.status();
  const auto code = static_cast<Errc>(r.value().header.status);
  if (code != Errc::ok) return Status(code, "hello rejected");
  neg_version_ = std::min(r.value().header.version, cfg_.max_wire_version);
  hello_done_ = true;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Reconnect and replay
// ---------------------------------------------------------------------------

void Client::drop_stream_locked() {
  if (!stream_) return;
  stream_->close();
  stream_.reset();
}

Status Client::reconnect_locked(int attempt) {
  // Capped exponential backoff before dialing again.
  if (attempt >= 1 && cfg_.reconnect_backoff_ms > 0) {
    const std::uint64_t shift = static_cast<std::uint64_t>(std::min(attempt - 1, 16));
    const std::uint64_t backoff =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(cfg_.reconnect_backoff_ms) << shift,
                                cfg_.reconnect_backoff_max_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
  auto fresh = factory_();
  if (!fresh.is_ok()) return fresh.status();
  stream_ = std::move(fresh).value();

  // Each connection negotiates its own wire version — redo the hello before
  // anything else so the replays below already travel checksummed.
  hello_done_ = false;
  neg_version_ = 0;
  if (Status st = hello_locked(); !st.is_ok()) return st;

  // Replay the descriptor table. The server's descriptor database survives
  // the dead connection, so "fd already open" means the descriptor (and any
  // deferred state) is still there — that is success, not failure.
  for (const auto& [fd, path] : open_paths_) {
    FrameHeader req;
    req.op = OpCode::open;
    req.fd = fd;
    req.deadline_ms = cfg_.deadline_ms;
    req.payload_len = path.size();
    auto r = roundtrip_once(req, std::as_bytes(std::span(path.data(), path.size())));
    if (!r.is_ok()) return r.status();
    const auto code = static_cast<Errc>(r.value().header.status);
    if (code != Errc::ok && code != Errc::invalid_argument) {
      return Status(code, "open replay failed");
    }
  }
  c_reconnects_.inc();
  return Status::ok();
}

void Client::fail_over_locked(Status why) {
  // Only a lost connection is worth a redial; anything else (a protocol
  // violation, a rejected hello) fails every request awaiting its reply.
  bool lost = factory_ != nullptr && connection_lost(why.code());
  if (lost) drop_stream_locked();
  for (;;) {
    // Settle what cannot be resent; each remaining request spends one more
    // try on the redial below.
    int attempt = -1;
    for (auto& [seq, p] : pending_) {
      if (p.done) continue;
      if (!lost || !p.reconnectable) {
        settle_locked(p, why);
      } else if (p.tries > cfg_.reconnect_attempts) {
        c_giveups_.inc();
        settle_locked(p, Status(why.code(), "reconnect attempts exhausted: " + why.to_string()));
      } else {
        attempt = attempt < 0 ? p.tries : std::min(attempt, p.tries);
        ++p.tries;
      }
    }
    if (attempt < 0) return;

    Status st = reconnect_locked(attempt);
    // Resend in sequence order: the server sees the unacked tail of the old
    // connection exactly as it was submitted.
    for (auto it = pending_.begin(); st.is_ok() && it != pending_.end(); ++it) {
      if (!it->second.done) st = send_frame_locked(it->second.req, it->second.payload);
    }
    if (st.is_ok()) return;
    why = st;
    lost = true;  // every failure while redialing spends a try
    drop_stream_locked();
  }
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

void Client::settle_locked(Pending& p, Status st, Reply reply) {
  p.done = true;
  --in_flight_;
  const FrameHeader& req = p.req;
  if (req.op == OpCode::close) open_paths_.erase(req.fd);
  if (st.is_ok()) {
    if (req.op == OpCode::write) {
      last_staged_ = (reply.header.flags & FrameHeader::kFlagStaged) != 0;
    }
    if (req.op == OpCode::open && static_cast<Errc>(reply.header.status) == Errc::ok) {
      open_paths_[req.fd] = std::move(p.path);
    }
  }
  p.status = std::move(st);
  p.reply = std::move(reply);
}

void Client::reap_one_locked() {
  auto r = read_reply_locked();
  if (!r.is_ok()) {
    fail_over_locked(r.status());
    return;
  }
  auto it = pending_.find(r.value().header.seq);
  if (it == pending_.end() || it->second.done) {
    fail_over_locked(Status(Errc::protocol_error, "mismatched reply"));
    return;
  }
  Pending& p = it->second;
  // A checksum_error *status* means our request arrived corrupted and the
  // server bounced it without executing. The connection itself is fine,
  // but redial-and-replay is the one recovery path that handles every
  // corruption uniformly.
  if (static_cast<Errc>(r.value().header.status) == Errc::checksum_error &&
      p.reconnectable) {
    c_request_bounces_.inc();
    fail_over_locked(Status(Errc::checksum_error, "request bounced by server"));
    return;
  }
  if (p.tries > 1) c_replays_.inc();
  settle_locked(p, Status::ok(), std::move(r).value());
}

std::uint64_t Client::submit(FrameHeader req, std::span<const std::byte> payload) {
  std::scoped_lock lock(mu_);
  req.type = MsgType::request;
  if (req.deadline_ms == 0) req.deadline_ms = cfg_.deadline_ms;
  // For reads the caller presets payload_len to the requested length and
  // sends no payload; for everything else it is the payload size.
  if (!payload.empty()) req.payload_len = payload.size();

  // A full window first reaps replies; so does a connection that still
  // needs its hello, which must travel alone.
  const bool needs_hello =
      req.op != OpCode::shutdown && !hello_done_ && cfg_.max_wire_version > 0;
  while (in_flight_ >= static_cast<std::size_t>(cfg_.window) ||
         (needs_hello && in_flight_ > 0)) {
    reap_one_locked();
  }

  req.seq = next_seq_++;
  Pending& p = pending_[req.seq];
  p.req = req;
  p.payload = payload;
  if (req.op == OpCode::open) {
    // The open is replayed after every redial: keep the path ourselves.
    p.path.assign(reinterpret_cast<const char*>(payload.data()), payload.size());
    p.payload = std::as_bytes(std::span(p.path.data(), p.path.size()));
  }
  p.reconnectable = factory_ != nullptr && req.op != OpCode::shutdown;
  ++in_flight_;
  if (!stream_) {
    // Dial first (no backoff: nothing has been tried yet).
    fail_over_locked(Status(Errc::not_connected, "no stream"));
    return req.seq;
  }
  p.tries = 1;
  // First traffic on a fresh initial stream: negotiate the wire version
  // (reconnect_locked already did this for redialed streams; shutdown
  // needs no negotiation — it carries no payload either way).
  Status st = needs_hello ? hello_locked() : Status::ok();
  if (st.is_ok()) st = send_frame_locked(p.req, p.payload);
  if (!st.is_ok()) fail_over_locked(st);
  return req.seq;
}

Result<Client::Reply> Client::wait_reply(std::uint64_t seq) {
  std::scoped_lock lock(mu_);
  auto it = pending_.find(seq);
  if (it == pending_.end()) return Status(Errc::invalid_argument, "unknown ticket");
  while (!it->second.done) reap_one_locked();
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (!p.status.is_ok()) return p.status;
  return std::move(p.reply);
}

std::size_t Client::outstanding() const {
  std::scoped_lock lock(mu_);
  return in_flight_;
}

namespace {
Status status_of(const FrameHeader& h) {
  const auto code = static_cast<Errc>(h.status);
  return code == Errc::ok ? Status::ok() : Status(code, "");
}

FrameHeader request(OpCode op, int fd = -1, std::uint64_t offset = 0) {
  FrameHeader req;
  req.op = op;
  req.fd = fd;
  req.offset = offset;
  return req;
}
}  // namespace

Client::Ticket Client::submit_open(int fd, const std::string& path) {
  return {submit(request(OpCode::open, fd), std::as_bytes(std::span(path.data(), path.size())))};
}

Client::Ticket Client::submit_write(int fd, std::uint64_t offset,
                                    std::span<const std::byte> data) {
  return {submit(request(OpCode::write, fd, offset), data)};
}

Client::ReadTicket Client::submit_read(int fd, std::uint64_t offset, std::uint64_t len) {
  FrameHeader req = request(OpCode::read, fd, offset);
  req.payload_len = len;  // requested length travels in the header
  return {submit(req, {})};
}

Client::Ticket Client::submit_fsync(int fd) { return {submit(request(OpCode::fsync, fd), {})}; }

Client::Ticket Client::submit_close(int fd) { return {submit(request(OpCode::close, fd), {})}; }

Status Client::wait(Ticket t) {
  auto r = wait_reply(t.seq);
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

Result<std::vector<std::byte>> Client::wait(ReadTicket t) {
  auto r = wait_reply(t.seq);
  if (!r.is_ok()) return r.status();
  if (Status st = status_of(r.value().header); !st.is_ok()) return st;
  return std::move(r.value().payload);
}

Status Client::open(int fd, const std::string& path) { return wait(submit_open(fd, path)); }

Status Client::write(int fd, std::uint64_t offset, std::span<const std::byte> data) {
  return wait(submit_write(fd, offset, data));
}

Result<std::vector<std::byte>> Client::read(int fd, std::uint64_t offset, std::uint64_t len) {
  return wait(submit_read(fd, offset, len));
}

Status Client::fsync(int fd) { return wait(submit_fsync(fd)); }

Result<std::uint64_t> Client::fstat_size(int fd) {
  auto r = roundtrip(request(OpCode::fstat, fd), {});
  if (!r.is_ok()) return r.status();
  if (Status st = status_of(r.value().header); !st.is_ok()) return st;
  if (r.value().payload.size() != 8) return Status(Errc::protocol_error, "bad fstat reply");
  std::uint64_t v;
  std::memcpy(&v, r.value().payload.data(), 8);
  return v;
}

Status Client::close(int fd) { return wait(submit_close(fd)); }

Status Client::shutdown() {
  auto r = roundtrip(request(OpCode::shutdown), {});
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

Status Client::ping() {
  // Goes through the normal submit path, so a ping against a
  // recovered-but-disconnected server re-dials via the factory and replays
  // opens — success here means the connection is fully usable again, which
  // is what the half-open breaker probe needs to know.
  auto r = roundtrip(request(OpCode::ping), {});
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

std::uint16_t Client::negotiated_version() const {
  std::scoped_lock lock(mu_);
  return neg_version_;
}

}  // namespace iofwd::rt
