#include "wrappers.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <set>

namespace fwdbench {

using iofwd::Result;
using iofwd::Status;

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::open: return "open";
    case OpKind::write: return "write";
    case OpKind::read: return "read";
    case OpKind::fsync: return "fsync";
    case OpKind::close: return "close";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ConnTrace
// ---------------------------------------------------------------------------

void ConnTrace::reserve(std::size_t n) {
  ops.reserve(n);
  reads.reserve(3 * n);
  writes.reserve(n);
}

void ConnTrace::begin_op(OpKind kind, int fd, std::uint64_t offset, std::uint64_t bytes,
                         std::int64_t t_start) {
  ClientOp op;
  op.kind = kind;
  op.fd = fd;
  op.offset = offset;
  op.bytes = bytes;
  op.t_start = t_start;
  ops.push_back(op);
  cur_.store(static_cast<std::uint32_t>(ops.size() - 1), std::memory_order_release);
}

void ConnTrace::on_client_send(std::int64_t t0, std::int64_t t1) {
  ClientOp& op = ops.back();
  if (op.t_send0 == 0) op.t_send0 = t0;
  op.t_send1 = t1;
}

void ConnTrace::on_client_recv(std::int64_t t1) {
  ClientOp& op = ops.back();
  if (op.t_hdr == 0) op.t_hdr = t1;
}

void ConnTrace::on_server_read(std::int64_t t0, std::int64_t t1, std::uint64_t bytes) {
  // Read the op after the call: bytes it returned were sent by that op,
  // because the client sends the next request only after this one's reply.
  const std::uint32_t op = cur_.load(std::memory_order_acquire);
  if (op != kNoOp) reads.push_back({op, t0, t1, bytes});
}

void ConnTrace::on_server_write(std::uint32_t op, std::int64_t t0, std::int64_t t1,
                                std::uint64_t bytes) {
  // The reply to op k follows request k, which follows begin_op(k), so op
  // (loaded before the write) is the op this reply belongs to.
  if (op == kNoOp) return;
  std::scoped_lock lock(writes_mu_);
  writes.push_back({op, t0, t1, bytes});
}

// ---------------------------------------------------------------------------
// Stream taps
// ---------------------------------------------------------------------------

Status ClientTap::read_exact(void* buf, std::size_t n) {
  Status st = inner_->read_exact(buf, n);
  if (trace_.active()) trace_.on_client_recv(now_ns());
  return st;
}

Status ClientTap::write_all(const void* buf, std::size_t n) {
  if (!trace_.active()) return inner_->write_all(buf, n);
  const std::int64_t t0 = now_ns();
  Status st = inner_->write_all(buf, n);
  trace_.on_client_send(t0, now_ns());
  return st;
}

Status ServerTap::read_exact(void* buf, std::size_t n) {
  const std::int64_t t0 = now_ns();
  Status st = inner_->read_exact(buf, n);
  trace_.on_server_read(t0, now_ns(), st.is_ok() ? n : 0);
  return st;
}

Result<std::size_t> ServerTap::read_some(void* buf, std::size_t n) {
  const std::int64_t t0 = now_ns();
  auto r = inner_->read_some(buf, n);
  trace_.on_server_read(t0, now_ns(), r.is_ok() ? r.value() : 0);
  return r;
}

Status ServerTap::write_all(const void* buf, std::size_t n) {
  const std::uint32_t op = trace_.current_op();
  const std::int64_t t0 = now_ns();
  Status st = inner_->write_all(buf, n);
  trace_.on_server_write(op, t0, now_ns(), st.is_ok() ? n : 0);
  return st;
}

Result<std::size_t> ServerTap::write_some(const void* buf, std::size_t n) {
  const std::uint32_t op = trace_.current_op();
  const std::int64_t t0 = now_ns();
  auto r = inner_->write_some(buf, n);
  trace_.on_server_write(op, t0, now_ns(), r.is_ok() ? r.value() : 0);
  return r;
}

Result<std::size_t> ServerTap::writev_some(std::span<const std::span<const std::byte>> iov) {
  const std::uint32_t op = trace_.current_op();
  const std::int64_t t0 = now_ns();
  auto r = inner_->writev_some(iov);
  trace_.on_server_write(op, t0, now_ns(), r.is_ok() ? r.value() : 0);
  return r;
}

// ---------------------------------------------------------------------------
// TapBackend
// ---------------------------------------------------------------------------

void TapBackend::record(OpKind kind, int fd, std::uint64_t offset, std::uint64_t bytes,
                        std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  std::scoped_lock lock(mu_);
  events_.push_back({kind, fd, offset, bytes, t0, t1});
}

Status TapBackend::open(int fd, const std::string& path) {
  const std::int64_t t0 = now_ns();
  Status st = inner_->open(fd, path);
  record(OpKind::open, fd, 0, 0, t0);
  return st;
}

Result<std::uint64_t> TapBackend::write(int fd, std::uint64_t offset,
                                        std::span<const std::byte> data) {
  const std::int64_t t0 = now_ns();
  auto r = inner_->write(fd, offset, data);
  record(OpKind::write, fd, offset, data.size(), t0);
  return r;
}

Result<std::uint64_t> TapBackend::read(int fd, std::uint64_t offset, std::span<std::byte> out) {
  const std::int64_t t0 = now_ns();
  auto r = inner_->read(fd, offset, out);
  record(OpKind::read, fd, offset, out.size(), t0);
  return r;
}

Status TapBackend::fsync(int fd) {
  const std::int64_t t0 = now_ns();
  Status st = inner_->fsync(fd);
  record(OpKind::fsync, fd, 0, 0, t0);
  return st;
}

Status TapBackend::close(int fd) {
  const std::int64_t t0 = now_ns();
  Status st = inner_->close(fd);
  record(OpKind::close, fd, 0, 0, t0);
  return st;
}

std::vector<BackendEvent> TapBackend::take_events() {
  std::scoped_lock lock(mu_);
  return std::move(events_);
}

// ---------------------------------------------------------------------------
// JournalWatch
// ---------------------------------------------------------------------------

JournalWatch::JournalWatch(std::string dir) : dir_(std::move(dir)) {
  thread_ = std::thread([this] {
    while (!quit_.load(std::memory_order_acquire)) {
      poll_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

JournalWatch::~JournalWatch() { (void)finish(); }

void JournalWatch::poll_once() {
  std::set<std::string> present;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".seg")) present.insert(name);
  }
  for (const std::string& name : present) {
    if (live_.contains(name)) continue;
    const int fd = ::open((dir_ + "/" + name).c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) live_.emplace(name, Segment{fd, 0});
  }
  for (auto it = live_.begin(); it != live_.end();) {
    struct stat st{};
    if (::fstat(it->second.fd, &st) == 0) {
      it->second.max_size =
          std::max<std::uint64_t>(it->second.max_size, static_cast<std::uint64_t>(st.st_size));
    }
    if (present.contains(it->first)) {
      ++it;
      continue;
    }
    retired_bytes_ += it->second.max_size;
    ::close(it->second.fd);
    it = live_.erase(it);
  }
}

std::uint64_t JournalWatch::finish() {
  if (thread_.joinable()) {
    quit_.store(true, std::memory_order_release);
    thread_.join();
    poll_once();
    for (auto& [name, seg] : live_) {
      retired_bytes_ += seg.max_size;
      ::close(seg.fd);
    }
    live_.clear();
  }
  return retired_bytes_;
}

}  // namespace fwdbench
