// I/O backends: what the ION server executes forwarded operations against.
//
//   * MemBackend  — in-memory files; the default for tests and examples,
//                   and the analogue of streaming to analysis-node memory.
//   * FileBackend — real files under a root directory (posix pread/pwrite),
//                   the GPFS-client analogue for a deployment.
//   * NullBackend — /dev/null semantics (the Fig. 4 microbenchmark).
//
// Backends are called concurrently from worker threads and must be
// thread-safe. Failure injection lives in fault/decorators.hpp
// (fault::FaultyBackend), which wraps any of these.
//
// Non-blocking attempts (DESIGN.md §13): try_write/try_read are called on a
// receiver lane, which must never wait. An implementation either completes
// the op now, without sleeping — no blocking lock, no allocation that grows
// a file, no device I/O — and returns what write/read would have returned
// (an error included), or does nothing at all and returns Errc::would_block.
// The lane then hands the op to the worker pool, which calls write/read.
// The default always declines, so a decorator that does not override them
// (fault injection, retries, the burst buffer) keeps every op on the
// worker path. A backend that declines is always correct; one that
// overrides must be correct for any interleaving with write/read.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"

namespace iofwd::rt {

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual Status open(int fd, const std::string& path) = 0;
  virtual Result<std::uint64_t> write(int fd, std::uint64_t offset,
                                      std::span<const std::byte> data) = 0;
  virtual Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) = 0;
  virtual Status fsync(int fd) = 0;
  virtual Status close(int fd) = 0;
  // Attribute query: current file size in bytes.
  virtual Result<std::uint64_t> size(int fd) = 0;

  // Complete now or decline with would_block and no side effect (see above).
  virtual Result<std::uint64_t> try_write(int /*fd*/, std::uint64_t /*offset*/,
                                          std::span<const std::byte> /*data*/) {
    return Status(Errc::would_block, "declined");
  }
  virtual Result<std::uint64_t> try_read(int /*fd*/, std::uint64_t /*offset*/,
                                         std::span<std::byte> /*out*/) {
    return Status(Errc::would_block, "declined");
  }
};

class NullBackend final : public IoBackend {
 public:
  Status open(int, const std::string&) override { return Status::ok(); }
  Result<std::uint64_t> write(int, std::uint64_t, std::span<const std::byte> data) override {
    return static_cast<std::uint64_t>(data.size());
  }
  Result<std::uint64_t> read(int, std::uint64_t, std::span<std::byte> out) override {
    std::fill(out.begin(), out.end(), std::byte{0});
    return static_cast<std::uint64_t>(out.size());
  }
  Status fsync(int) override { return Status::ok(); }
  Status close(int) override { return Status::ok(); }
  Result<std::uint64_t> size(int) override { return 0ull; }
  Result<std::uint64_t> try_write(int fd, std::uint64_t offset,
                                  std::span<const std::byte> data) override {
    return write(fd, offset, data);
  }
  Result<std::uint64_t> try_read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return read(fd, offset, out);
  }
};

class MemBackend final : public IoBackend {
 public:
  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;
  // Try-locks only; a write that would grow the file declines (growing
  // reallocates, and holds the file's lock for the whole copy).
  Result<std::uint64_t> try_write(int fd, std::uint64_t offset,
                                  std::span<const std::byte> data) override;
  Result<std::uint64_t> try_read(int fd, std::uint64_t offset, std::span<std::byte> out) override;

  // Test inspection: a copy of the file content (empty if unknown path).
  [[nodiscard]] std::vector<std::byte> snapshot(const std::string& path) const;

 private:
  struct File {
    std::string path;
    std::shared_mutex mu;  // guards data; writers to different files never meet
    std::vector<std::byte> data;
  };
  // The file bound to fd, or bad_descriptor. With `wait` false the table is
  // only try-locked: would_block when it is busy.
  Result<std::shared_ptr<File>> find(int fd, bool wait) const;

  mutable std::shared_mutex mu_;  // guards the two maps, not file contents
  std::map<int, std::shared_ptr<File>> open_;
  std::map<std::string, std::shared_ptr<File>> by_path_;
};

class FileBackend final : public IoBackend {
 public:
  explicit FileBackend(std::string root) : root_(std::move(root)) {}

  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;

 private:
  Result<int> host_fd(int fd) const;

  std::string root_;
  mutable std::shared_mutex mu_;
  std::map<int, int> open_;  // forwarded fd -> host fd
};

}  // namespace iofwd::rt
