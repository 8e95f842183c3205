// Client: the compute-node side of the forwarding runtime.
//
// POSIX-like calls are shipped to the ION server over any ByteStream. Calls
// block for the server's reply — which, in the async-staging execution
// model, arrives as soon as the payload is staged in the ION's BML buffer
// (the reply carries the `staged` flag), so write() returns while the
// actual I/O proceeds in the background. Deferred errors from those
// background operations surface on subsequent calls on the same descriptor,
// on fsync(), or on close() — exactly the paper's semantics.
//
// Windowed pipelining (DESIGN.md §15): ClientConfig::window bounds how many
// requests one connection may have awaiting their reply. submit_*() sends a
// request and returns a ticket; wait(ticket) returns its result. The
// blocking calls are submit + wait, so the default window of 1 is strict
// request/reply. There is no receive thread: the thread that waits reads
// reply frames inline and matches them by sequence number, parking replies
// that belong to other tickets until those are waited on, and a submit that
// finds the window full first reaps replies until a slot frees. Every
// request gets the same treatment whether pipelined or not: hello, tenant,
// priority class, deadline, per-payload CRC stamp and reply-CRC check.
//
//   ClientConfig cfg;
//   cfg.window = 16;
//   Client c(std::move(stream), cfg);
//   c.open(1, "f");
//   std::vector<Client::Ticket> ts;
//   for (...) ts.push_back(c.submit_write(1, off, data));
//   for (auto t : ts) check(c.wait(t));
//
// Contract: the payload span given to submit_write must stay valid until
// its ticket is waited on — a redial resends it from there. Wait on every ticket exactly once; a parked reply
// is held until then. In-flight writes to overlapping ranges have no
// defined order. Keep window x the largest read reply under the server's
// ServerConfig::send_queue_bytes (4 MiB by default): replies the client has
// not reaped yet wait in that queue.
//
// Resilience (DESIGN.md §10): constructed with a StreamFactory, the client
// survives a dead connection — a transport error (or a corrupted frame)
// reconnects with capped exponential backoff, redoes the hello, replays
// open() for every descriptor it tracks (the server keeps descriptor state
// across connections, so an "already open" bounce counts as success), and
// then resends every request still awaiting its reply in sequence order,
// which is safe because every forwarded op is offset-based and therefore
// idempotent. Each request gets 1 + reconnect_attempts tries. A
// roundtrip_timeout_ms watchdog bounds each send and each reply wait: a
// hung ION gets its connection closed from our side, surfacing timed_out
// instead of blocking the CN forever.
//
// Thread safety: a Client serializes its stream traffic internally, so it
// may be shared; for concurrency, open one Client per application thread
// (each with its own transport), mirroring one CN process per connection.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/status.hpp"
#include "obs/metrics.hpp"
#include "rt/transport.hpp"
#include "rt/wire.hpp"

namespace iofwd::rt {

// Produces a fresh connected stream to the server (used for reconnects).
using StreamFactory = std::function<Result<std::unique_ptr<ByteStream>>()>;

struct ClientConfig {
  // Stamped into every request header; the server bounces ops still
  // unexecuted after this many ms with timed_out. 0 = no deadline.
  std::uint32_t deadline_ms = 0;
  // Client-side watchdog: a roundtrip without a reply within this budget
  // closes the connection and fails with timed_out. 0 = wait forever.
  std::uint32_t roundtrip_timeout_ms = 0;
  // Reconnect attempts per failed roundtrip (requires a StreamFactory).
  int reconnect_attempts = 3;
  std::uint32_t reconnect_backoff_ms = 10;       // base, doubled per attempt
  std::uint32_t reconnect_backoff_max_ms = 500;  // cap
  // Shared metric registry for the "client.*" namespace (null = the client
  // owns a private one). See DESIGN.md §11.
  obs::MetricRegistry* registry = nullptr;
  // Highest wire-protocol version to offer in the hello handshake
  // (DESIGN.md §12). kProtoVersion turns on per-payload CRC32C when the
  // server also speaks v1; 0 emulates a legacy client (no hello is sent and
  // checksums stay off in both directions).
  std::uint16_t max_wire_version = kProtoVersion;
  // Tenant (client/job) id, announced in the hello handshake (DESIGN.md
  // §17): keys the server's fair-share scheduler and QoS token buckets. A
  // RoutingClient passes one config to every shard connection, so the same
  // id tags this tenant consistently across the fleet. 0 = anonymous (and
  // all v0 clients land there).
  std::uint64_t tenant = 0;
  // Priority class stamped into every request header (clamped to
  // kMaxPriorityClass); only the `prio` scheduler orders by it.
  std::uint8_t priority = 0;
  // Requests this connection may have awaiting their reply (values below 1
  // count as 1). 1 = strict request/reply; larger windows pipeline through
  // submit_*() / wait().
  int window = 1;
};

// The forwarded-call surface a compute-node application programs against,
// independent of how many IONs stand behind it. rt::Client implements it
// over one connection; cluster::RoutingClient implements it over N shards.
// The test harness and fault specs hold this interface, so the same spec
// runs unchanged against a single server or a sharded cluster.
class ForwardingClient {
 public:
  virtual ~ForwardingClient() = default;

  // Forwarded calls. `fd` is chosen by the caller (client-managed namespace,
  // like MPI-IO file handles).
  virtual Status open(int fd, const std::string& path) = 0;
  virtual Status write(int fd, std::uint64_t offset, std::span<const std::byte> data) = 0;
  virtual Result<std::vector<std::byte>> read(int fd, std::uint64_t offset,
                                              std::uint64_t len) = 0;
  virtual Status fsync(int fd) = 0;
  virtual Result<std::uint64_t> fstat_size(int fd) = 0;
  virtual Status close(int fd) = 0;

  // Polite disconnect (server releases the connection). Never reconnects.
  virtual Status shutdown() = 0;

  // Liveness probe (DESIGN.md §16): a no-payload roundtrip the server
  // answers inline on the receiver, bypassing the work queue. The health
  // layer uses it as the half-open breaker probe; on rt::Client it runs
  // through the normal reconnect machinery, so a successful ping against a
  // restarted shard also re-dials and replays opens. Default: unsupported,
  // so decorator-style implementations need not care.
  virtual Status ping() { return {Errc::unsupported, "ping not supported"}; }

  // True if the most recently reaped write reply was acknowledged as staged
  // (async mode).
  [[nodiscard]] virtual bool last_write_was_staged() const = 0;

  // Point-in-time view of the client's "client.*" counters (DESIGN.md §11):
  // reconnects, replays, timeouts, giveups, client.integrity.* and, for a
  // RoutingClient, the fleet sum of every shard's client.breaker.*.
  [[nodiscard]] virtual obs::Snapshot metrics() const = 0;
};

class Client final : public ForwardingClient {
 public:
  // A submitted request awaiting wait(). ReadTicket's result carries data.
  struct Ticket {
    std::uint64_t seq = 0;
  };
  struct ReadTicket {
    std::uint64_t seq = 0;
  };

  explicit Client(std::unique_ptr<ByteStream> stream, ClientConfig cfg = {},
                  StreamFactory factory = nullptr);
  ~Client() override;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status open(int fd, const std::string& path) override;
  Status write(int fd, std::uint64_t offset, std::span<const std::byte> data) override;
  Result<std::vector<std::byte>> read(int fd, std::uint64_t offset,
                                      std::uint64_t len) override;
  Status fsync(int fd) override;
  Result<std::uint64_t> fstat_size(int fd) override;
  Status close(int fd) override;

  Status shutdown() override;
  Status ping() override;

  // Pipelined calls: send the request (reaping replies first if the window
  // is full) and return without waiting for its reply. A request that could
  // not be sent is settled with its error, which wait() returns.
  Ticket submit_open(int fd, const std::string& path);
  Ticket submit_write(int fd, std::uint64_t offset, std::span<const std::byte> data);
  ReadTicket submit_read(int fd, std::uint64_t offset, std::uint64_t len);
  Ticket submit_fsync(int fd);
  Ticket submit_close(int fd);
  // Block until the ticket's reply is in (reading and parking other
  // tickets' replies meanwhile) and return its result. A ticket already
  // waited on, or never issued, yields invalid_argument.
  Status wait(Ticket t);
  Result<std::vector<std::byte>> wait(ReadTicket t);

  // Requests sent and still awaiting their reply (never above the window).
  [[nodiscard]] std::size_t outstanding() const;

  [[nodiscard]] bool last_write_was_staged() const override { return last_staged_; }

  // The wire version negotiated on the current connection: 0 before the
  // first roundtrip (or when either side is v0), >= 1 when payload
  // checksums are active.
  [[nodiscard]] std::uint16_t negotiated_version() const;

  [[nodiscard]] obs::Snapshot metrics() const override { return reg_->snapshot(); }

  // The registry behind metrics() — client-owned unless ClientConfig::registry
  // was set.
  [[nodiscard]] obs::MetricRegistry& registry() const { return *reg_; }

 private:
  struct Reply {
    FrameHeader header;
    std::vector<std::byte> payload;
  };
  // One submitted request, from submit until its ticket is waited on.
  struct Pending {
    FrameHeader req;                     // as submitted: seq set, unstamped
    std::span<const std::byte> payload;  // caller-owned until wait()
    std::string path;                    // open: owned copy, `payload` views it
    int tries = 0;          // attempts spent: the first send plus each redial
    bool reconnectable = false;
    bool done = false;      // reply reaped (or request failed)
    Status status;          // transport-level outcome once done
    Reply reply;
  };

  // Register and send one request; returns its sequence number.
  std::uint64_t submit(FrameHeader req, std::span<const std::byte> payload);
  // Reap replies until `seq` is settled, then hand over its outcome.
  Result<Reply> wait_reply(std::uint64_t seq);
  Result<Reply> roundtrip(FrameHeader req, std::span<const std::byte> payload) {
    return wait_reply(submit(req, payload));
  }

  // All of the below run with mu_ held.
  // Stamp version, priority class and payload CRC, then write the frame.
  Status send_frame_locked(FrameHeader h, std::span<const std::byte> payload);
  // Read one reply frame off the stream and verify its payload CRC.
  Result<Reply> read_reply_locked();
  // One request/reply exchange with nothing else in flight (hello, open
  // replay on a fresh connection).
  Result<Reply> roundtrip_once(FrameHeader req, std::span<const std::byte> payload);
  // Read one reply and file it under its ticket; on failure, fail over.
  void reap_one_locked();
  // Mark `p` done with its outcome and apply the op's client-side effects.
  void settle_locked(Pending& p, Status st, Reply reply = {});
  // The connection failed with `why`: either redial, replay the opens and
  // resend every request still awaiting its reply, or settle those requests
  // with the error once they are out of tries (or cannot reconnect).
  void fail_over_locked(Status why);
  // Establish a fresh stream via the factory (with backoff for `attempt`
  // >= 1) and replay open() for every tracked descriptor.
  Status reconnect_locked(int attempt);
  // Negotiate the wire version on a fresh connection: sends `hello` with
  // max_wire_version and records the server's clamp. No-op when already
  // negotiated or when configured as a v0 peer.
  Status hello_locked();
  void drop_stream_locked();
  [[nodiscard]] static bool connection_lost(Errc e);

  // Roundtrip watchdog (lazily started when roundtrip_timeout_ms > 0).
  void watchdog_loop();
  void watchdog_arm();
  // Returns true if the watchdog killed the stream since the last arm.
  bool watchdog_disarm();
  // Disarm after one guarded stream call: a failure the watchdog caused
  // becomes timed_out.
  Status watched(Status st);

  std::unique_ptr<ByteStream> stream_;
  ClientConfig cfg_;
  StreamFactory factory_;

  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Pending> pending_;  // seq -> request, oldest first
  std::size_t in_flight_ = 0;                 // pending_ entries not yet done
  // Staged flag of the most recently reaped write reply; read without mu_,
  // which a waiting thread holds for as long as its reply takes.
  std::atomic<bool> last_staged_{false};
  std::map<int, std::string> open_paths_;  // fd -> path, for reconnect replay
  bool hello_done_ = false;     // version negotiated on the current stream
  std::uint16_t neg_version_ = 0;

  // Registry-backed counters ("client.*").
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* reg_;  // never null
  obs::Counter& c_reconnects_;
  obs::Counter& c_replays_;
  obs::Counter& c_timeouts_;
  obs::Counter& c_giveups_;
  obs::Counter& c_header_crc_errors_;
  obs::Counter& c_payload_crc_errors_;
  obs::Counter& c_request_bounces_;

  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_armed_ = false;
  bool wd_fired_ = false;
  bool wd_quit_ = false;
  std::chrono::steady_clock::time_point wd_deadline_{};
  ByteStream* wd_target_ = nullptr;
  std::thread wd_thread_;
};

}  // namespace iofwd::rt
