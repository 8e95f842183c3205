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

// ---------------------------------------------------------------------------
// Roundtrips
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

Result<Client::Reply> Client::roundtrip_once(FrameHeader req, std::span<const std::byte> payload) {
  req.seq = next_seq_++;
  if (req.op == OpCode::hello) {
    req.version = cfg_.max_wire_version;  // advertise our best; server clamps
  } else {
    req.version = neg_version_;
    // Priority classes ride the v1 reserved byte; a v0 conversation must
    // keep it zero (the server rejects nonzero reserved bits from v0 peers).
    if (neg_version_ >= 1) {
      req.klass = std::min(cfg_.priority, kMaxPriorityClass);
    }
    if (neg_version_ >= 1 && !payload.empty()) req.stamp_payload_crc(payload);
  }

  watchdog_arm();
  auto finish = [&](Result<Reply> r) -> Result<Reply> {
    const bool fired = watchdog_disarm();
    if (fired && !r.is_ok()) {
      c_timeouts_.inc();
      return Status(Errc::timed_out, "roundtrip timed out");
    }
    return r;
  };

  std::byte buf[FrameHeader::kWireSize];
  req.encode(std::span<std::byte, FrameHeader::kWireSize>(buf));
  if (Status st = stream_->write_all(buf, sizeof buf); !st.is_ok()) return finish(st);
  if (!payload.empty()) {
    if (Status st = stream_->write_all(payload.data(), payload.size()); !st.is_ok()) {
      return finish(st);
    }
  }

  std::byte rep_buf[FrameHeader::kWireSize];
  if (Status st = stream_->read_exact(rep_buf, sizeof rep_buf); !st.is_ok()) return finish(st);
  auto hdr = FrameHeader::decode(std::span<const std::byte, FrameHeader::kWireSize>(rep_buf));
  if (!hdr.is_ok()) {
    if (hdr.code() == Errc::checksum_error) c_header_crc_errors_.inc();
    return finish(hdr.status());
  }
  Reply r;
  r.header = hdr.value();
  if (r.header.type != MsgType::reply || r.header.seq != req.seq) {
    return finish(Status(Errc::protocol_error, "mismatched reply"));
  }
  if (r.header.payload_len > 0) {
    r.payload.resize(r.header.payload_len);
    if (Status st = stream_->read_exact(r.payload.data(), r.payload.size()); !st.is_ok()) {
      return finish(st);
    }
  }
  // Verify the reply payload against its checksum (flag-driven: a v0 server
  // never sets kFlagPayloadCrc and is accepted unchecked). A mismatch is a
  // transport fault — the caller redials and replays the idempotent op.
  if (!r.header.payload_crc_ok(r.payload)) {
    c_payload_crc_errors_.inc();
    return finish(Status(Errc::checksum_error, "reply payload crc mismatch"));
  }
  return finish(std::move(r));
}

Status Client::hello_locked() {
  if (hello_done_ || cfg_.max_wire_version == 0) return Status::ok();
  FrameHeader req;
  req.type = MsgType::request;
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
  // anything else so the open replays below already travel checksummed.
  hello_done_ = false;
  neg_version_ = 0;
  if (Status st = hello_locked(); !st.is_ok()) {
    stream_->close();
    stream_.reset();
    return st;
  }

  // Replay the descriptor table. The server's descriptor database survives
  // the dead connection, so "fd already open" means the descriptor (and any
  // deferred state) is still there — that is success, not failure.
  for (const auto& [fd, path] : open_paths_) {
    FrameHeader req;
    req.type = MsgType::request;
    req.op = OpCode::open;
    req.fd = fd;
    req.deadline_ms = cfg_.deadline_ms;
    req.payload_len = path.size();
    auto r = roundtrip_once(req, std::as_bytes(std::span(path.data(), path.size())));
    if (!r.is_ok()) {
      stream_->close();
      stream_.reset();
      return r.status();
    }
    const auto code = static_cast<Errc>(r.value().header.status);
    if (code != Errc::ok && code != Errc::invalid_argument) {
      return Status(code, "open replay failed");
    }
  }
  c_reconnects_.inc();
  return Status::ok();
}

Result<Client::Reply> Client::roundtrip(FrameHeader req, std::span<const std::byte> payload) {
  std::scoped_lock lock(mu_);
  req.type = MsgType::request;
  if (req.deadline_ms == 0) req.deadline_ms = cfg_.deadline_ms;
  // For reads the caller presets payload_len to the requested length and
  // sends no payload; for everything else it is the payload size.
  if (!payload.empty()) req.payload_len = payload.size();

  const bool reconnectable = factory_ != nullptr && req.op != OpCode::shutdown;
  const int max_tries = 1 + (reconnectable ? cfg_.reconnect_attempts : 0);
  Status last(Errc::not_connected, "no stream");
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    if (attempt > 0 || !stream_) {
      if (!reconnectable) break;
      if (Status st = reconnect_locked(attempt); !st.is_ok()) {
        last = st;
        if (stream_) {
          stream_->close();
          stream_.reset();
        }
        continue;
      }
    }
    // First traffic on a fresh initial stream: negotiate the wire version
    // (reconnect_locked already did this for redialed streams; shutdown
    // needs no negotiation — it carries no payload either way).
    if (req.op != OpCode::shutdown) {
      if (Status st = hello_locked(); !st.is_ok()) {
        last = st;
        if (!reconnectable || !connection_lost(st.code())) return st;
        stream_->close();
        stream_.reset();
        continue;
      }
    }
    auto r = roundtrip_once(req, payload);
    if (r.is_ok()) {
      // A checksum_error *status* means our request arrived corrupted and
      // the server bounced it without executing. The connection itself is
      // fine, but redial-and-replay is the one recovery path that handles
      // every corruption uniformly.
      if (static_cast<Errc>(r.value().header.status) == Errc::checksum_error &&
          reconnectable) {
        c_request_bounces_.inc();
        last = Status(Errc::checksum_error, "request bounced by server");
        stream_->close();
        stream_.reset();
        continue;
      }
      if (attempt > 0) c_replays_.inc();
      return r;
    }
    last = r.status();
    if (!reconnectable || !connection_lost(last.code())) return last;
    // The connection is gone; drop it so the next attempt redials.
    stream_->close();
    stream_.reset();
  }
  c_giveups_.inc();
  return Status(last.code(), "reconnect attempts exhausted: " + last.to_string());
}

namespace {
Status status_of(const FrameHeader& h) {
  const auto code = static_cast<Errc>(h.status);
  return code == Errc::ok ? Status::ok() : Status(code, "");
}
}  // namespace

Status Client::open(int fd, const std::string& path) {
  FrameHeader req;
  req.op = OpCode::open;
  req.fd = fd;
  auto r = roundtrip(req, std::as_bytes(std::span(path.data(), path.size())));
  if (!r.is_ok()) return r.status();
  Status st = status_of(r.value().header);
  if (st.is_ok()) {
    std::scoped_lock lock(mu_);
    open_paths_[fd] = path;
  }
  return st;
}

Status Client::write(int fd, std::uint64_t offset, std::span<const std::byte> data) {
  FrameHeader req;
  req.op = OpCode::write;
  req.fd = fd;
  req.offset = offset;
  auto r = roundtrip(req, data);
  if (!r.is_ok()) return r.status();
  last_staged_ = (r.value().header.flags & FrameHeader::kFlagStaged) != 0;
  return status_of(r.value().header);
}

Result<std::vector<std::byte>> Client::read(int fd, std::uint64_t offset, std::uint64_t len) {
  FrameHeader req;
  req.op = OpCode::read;
  req.fd = fd;
  req.offset = offset;
  req.payload_len = len;  // requested length travels in the header
  auto r = roundtrip(req, {});
  if (!r.is_ok()) return r.status();
  if (Status st = status_of(r.value().header); !st.is_ok()) return st;
  return std::move(r.value().payload);
}

Status Client::fsync(int fd) {
  FrameHeader req;
  req.op = OpCode::fsync;
  req.fd = fd;
  auto r = roundtrip(req, {});
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

Result<std::uint64_t> Client::fstat_size(int fd) {
  FrameHeader req;
  req.op = OpCode::fstat;
  req.fd = fd;
  auto r = roundtrip(req, {});
  if (!r.is_ok()) return r.status();
  if (Status st = status_of(r.value().header); !st.is_ok()) return st;
  if (r.value().payload.size() != 8) return Status(Errc::protocol_error, "bad fstat reply");
  std::uint64_t v;
  std::memcpy(&v, r.value().payload.data(), 8);
  return v;
}

Status Client::close(int fd) {
  FrameHeader req;
  req.op = OpCode::close;
  req.fd = fd;
  auto r = roundtrip(req, {});
  {
    std::scoped_lock lock(mu_);
    open_paths_.erase(fd);
  }
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

Status Client::shutdown() {
  FrameHeader req;
  req.op = OpCode::shutdown;
  auto r = roundtrip(req, {});
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

Status Client::ping() {
  FrameHeader req;
  req.op = OpCode::ping;
  // Goes through roundtrip(), so a ping against a recovered-but-disconnected
  // server re-dials via the factory and replays opens — success here means
  // the connection is fully usable again, which is what the half-open
  // breaker probe needs to know.
  auto r = roundtrip(req, {});
  return r.is_ok() ? status_of(r.value().header) : r.status();
}

std::uint16_t Client::negotiated_version() const {
  std::scoped_lock lock(mu_);
  return neg_version_;
}

}  // namespace iofwd::rt
