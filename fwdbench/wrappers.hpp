// Outside-in instrumentation for the forwarding benchmark.
//
// Nothing here reaches inside the runtime: spans are recorded around calls
// into its public interfaces. ClientTap wraps the ByteStream an rt::Client
// writes to, ServerTap the ByteStream handed to IonServer::serve, TapBackend
// the IoBackend under the server (under the burst buffer when it is on).
// With one op in flight per connection, every server-side stream event on a
// connection belongs to that connection's current op.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/backend.hpp"
#include "rt/transport.hpp"

namespace fwdbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class OpKind : std::uint8_t { open, write, read, fsync, close };

[[nodiscard]] const char* op_name(OpKind k);

// One forwarded call as the client saw it. The four client-side spans
// encode [t_start, t_send0], send [t_send0, t_send1], wait [t_send1, t_hdr]
// and decode [t_hdr, t_end] tile the op.
struct ClientOp {
  OpKind kind = OpKind::write;
  int fd = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::int64_t t_start = 0;  // call entered
  std::int64_t t_send0 = 0;  // first request byte handed to the stream
  std::int64_t t_send1 = 0;  // last request byte accepted by the stream
  std::int64_t t_hdr = 0;    // reply header in hand
  std::int64_t t_end = 0;    // call returned

  // The client-side spans tile the op: every boundary was recorded, in order.
  [[nodiscard]] bool tiles() const {
    return t_start > 0 && t_start <= t_send0 && t_send0 <= t_send1 &&
           t_send1 <= t_hdr && t_hdr <= t_end;
  }
};

// One read or write call on the server's end of a connection. bytes == 0
// means the call made no progress (would_block or an error).
struct StreamEvent {
  std::uint32_t op = 0;  // index into ConnTrace::ops
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t bytes = 0;
};

// Span log of one connection. The client thread appends ops and its stream
// timestamps; the server's receiver appends reads, and whichever server
// thread sends a reply appends writes (under writes_mu). Read the vectors
// only after the client and the server have stopped.
class ConnTrace {
 public:
  static constexpr std::uint32_t kNoOp = ~0u;

  void reserve(std::size_t ops);
  void begin_op(OpKind kind, int fd, std::uint64_t offset, std::uint64_t bytes,
                std::int64_t t_start);
  void end_op(std::int64_t t_end) { ops.back().t_end = t_end; }
  // Stop attributing server events to the last op (untimed traffic follows).
  void idle() { cur_.store(kNoOp, std::memory_order_release); }

  void on_client_send(std::int64_t t0, std::int64_t t1);
  void on_client_recv(std::int64_t t1);
  void on_server_read(std::int64_t t0, std::int64_t t1, std::uint64_t bytes);
  // op is current_op() taken before the write call: once the reply's last
  // byte is in the socket the client may already have begun the next op.
  void on_server_write(std::uint32_t op, std::int64_t t0, std::int64_t t1, std::uint64_t bytes);

  [[nodiscard]] std::uint32_t current_op() const { return cur_.load(std::memory_order_acquire); }
  [[nodiscard]] bool active() const { return current_op() != kNoOp; }

  std::vector<ClientOp> ops;
  std::vector<StreamEvent> reads;
  std::vector<StreamEvent> writes;

 private:
  std::atomic<std::uint32_t> cur_{kNoOp};
  std::mutex writes_mu_;
};

// Client end of a connection: times write_all and read_exact.
class ClientTap final : public iofwd::rt::ByteStream {
 public:
  ClientTap(std::unique_ptr<iofwd::rt::ByteStream> inner, ConnTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  iofwd::Status read_exact(void* buf, std::size_t n) override;
  iofwd::Status write_all(const void* buf, std::size_t n) override;
  void close() override { inner_->close(); }
  [[nodiscard]] int read_readiness_fd() override { return inner_->read_readiness_fd(); }
  iofwd::Result<std::size_t> read_some(void* buf, std::size_t n) override {
    return inner_->read_some(buf, n);
  }
  [[nodiscard]] int write_readiness_fd() override { return inner_->write_readiness_fd(); }
  iofwd::Result<std::size_t> write_some(const void* buf, std::size_t n) override {
    return inner_->write_some(buf, n);
  }
  iofwd::Result<std::size_t> writev_some(
      std::span<const std::span<const std::byte>> iov) override {
    return inner_->writev_some(iov);
  }

 private:
  std::unique_ptr<iofwd::rt::ByteStream> inner_;
  ConnTrace& trace_;
};

// Server end of a connection. Forwards every call, including both readiness
// fds, so lanes and the EPOLLOUT gather path engage exactly as they do on a
// bare socket; times every read and write.
class ServerTap final : public iofwd::rt::ByteStream {
 public:
  ServerTap(std::unique_ptr<iofwd::rt::ByteStream> inner, ConnTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  iofwd::Status read_exact(void* buf, std::size_t n) override;
  iofwd::Status write_all(const void* buf, std::size_t n) override;
  void close() override { inner_->close(); }
  [[nodiscard]] int read_readiness_fd() override { return inner_->read_readiness_fd(); }
  iofwd::Result<std::size_t> read_some(void* buf, std::size_t n) override;
  [[nodiscard]] int write_readiness_fd() override { return inner_->write_readiness_fd(); }
  iofwd::Result<std::size_t> write_some(const void* buf, std::size_t n) override;
  iofwd::Result<std::size_t> writev_some(
      std::span<const std::span<const std::byte>> iov) override;

 private:
  std::unique_ptr<iofwd::rt::ByteStream> inner_;
  ConnTrace& trace_;
};

struct BackendEvent {
  OpKind kind = OpKind::write;
  int fd = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

// Times every call into the backend below it.
class TapBackend final : public iofwd::rt::IoBackend {
 public:
  explicit TapBackend(std::unique_ptr<iofwd::rt::IoBackend> inner) : inner_(std::move(inner)) {}

  iofwd::Status open(int fd, const std::string& path) override;
  iofwd::Result<std::uint64_t> write(int fd, std::uint64_t offset,
                                     std::span<const std::byte> data) override;
  iofwd::Result<std::uint64_t> read(int fd, std::uint64_t offset,
                                    std::span<std::byte> out) override;
  iofwd::Status fsync(int fd) override;
  iofwd::Status close(int fd) override;
  iofwd::Result<std::uint64_t> size(int fd) override { return inner_->size(fd); }

  // Events so far; call once the server has stopped.
  [[nodiscard]] std::vector<BackendEvent> take_events();

 private:
  void record(OpKind kind, int fd, std::uint64_t offset, std::uint64_t bytes, std::int64_t t0);

  std::unique_ptr<iofwd::rt::IoBackend> inner_;
  std::mutex mu_;
  std::vector<BackendEvent> events_;
};

// Part of the mixed_rw and ckpt_burst workloads, not of tracing: an fsync
// costs a fixed commit latency, as a parallel file system's commit would,
// in place of the backend's own. FileBackend's own fsync writes each
// 256 MiB checkpoint step to the host's disk: it timed the disk rather than
// the forwarding path, and the write-back it left behind slowed the runs of
// other workloads that followed for a minute or two.
class SlowFsyncBackend final : public iofwd::rt::IoBackend {
 public:
  SlowFsyncBackend(std::unique_ptr<iofwd::rt::IoBackend> inner, std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  iofwd::Status open(int fd, const std::string& path) override { return inner_->open(fd, path); }
  iofwd::Result<std::uint64_t> write(int fd, std::uint64_t offset,
                                     std::span<const std::byte> data) override {
    return inner_->write(fd, offset, data);
  }
  iofwd::Result<std::uint64_t> read(int fd, std::uint64_t offset,
                                    std::span<std::byte> out) override {
    return inner_->read(fd, offset, out);
  }
  iofwd::Status fsync(int fd) override {
    std::this_thread::sleep_for(delay_);
    return inner_->size(fd).status();  // still refuses an unknown descriptor
  }
  iofwd::Status close(int fd) override { return inner_->close(fd); }
  iofwd::Result<std::uint64_t> size(int fd) override { return inner_->size(fd); }

 private:
  std::unique_ptr<iofwd::rt::IoBackend> inner_;
  std::chrono::microseconds delay_;
};

// Measures how many bytes the burst buffer's journal writes, from outside:
// a poller holds every segment file (wal-*.seg) open from the moment it
// appears, so a segment's final size stays readable after the journal
// truncates and unlinks it.
class JournalWatch {
 public:
  explicit JournalWatch(std::string dir);
  ~JournalWatch();
  JournalWatch(const JournalWatch&) = delete;
  JournalWatch& operator=(const JournalWatch&) = delete;

  // Stops polling and returns the bytes written across every segment seen.
  std::uint64_t finish();

 private:
  void poll_once();

  struct Segment {
    int fd = -1;
    std::uint64_t max_size = 0;
  };
  std::string dir_;
  std::map<std::string, Segment> live_;
  std::uint64_t retired_bytes_ = 0;
  std::atomic<bool> quit_{false};
  std::thread thread_;  // declared last: started after the members it uses
};

}  // namespace fwdbench
