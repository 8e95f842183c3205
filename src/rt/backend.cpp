#include "rt/backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace iofwd::rt {

// ---------------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------------

Status MemBackend::open(int fd, const std::string& path) {
  std::unique_lock lock(mu_);
  if (auto it = open_.find(fd); it != open_.end()) {
    // Idempotent on the identical binding: a restarted ION replays its opens
    // over a backend whose handle table survived the crash (the PFS does not
    // die with the ION). Re-binding fd to the same path is a no-op; binding
    // it to a different path is still a caller bug.
    if (it->second->path == path) return Status::ok();
    return Status(Errc::invalid_argument, "fd already open");
  }
  auto& file = by_path_[path];
  if (!file) {
    file = std::make_shared<File>();
    file->path = path;
  }
  open_[fd] = file;
  return Status::ok();
}

Result<std::shared_ptr<MemBackend::File>> MemBackend::find(int fd, bool wait) const {
  std::shared_lock lock(mu_, std::defer_lock);
  if (wait) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return Status(Errc::would_block, "table busy");
  }
  auto it = open_.find(fd);
  if (it == open_.end()) return Status(Errc::bad_descriptor, "unknown fd");
  return it->second;
}

Result<std::uint64_t> MemBackend::write(int fd, std::uint64_t offset,
                                        std::span<const std::byte> data) {
  auto file = find(fd, /*wait=*/true);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  std::unique_lock lock(f.mu);
  if (f.data.size() < offset + data.size()) f.data.resize(offset + data.size());
  std::copy(data.begin(), data.end(), f.data.begin() + static_cast<std::ptrdiff_t>(offset));
  return static_cast<std::uint64_t>(data.size());
}

Result<std::uint64_t> MemBackend::try_write(int fd, std::uint64_t offset,
                                            std::span<const std::byte> data) {
  auto file = find(fd, /*wait=*/false);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  std::unique_lock lock(f.mu, std::try_to_lock);
  if (!lock.owns_lock()) return Status(Errc::would_block, "file busy");
  if (f.data.size() < offset + data.size()) return Status(Errc::would_block, "grows file");
  std::copy(data.begin(), data.end(), f.data.begin() + static_cast<std::ptrdiff_t>(offset));
  return static_cast<std::uint64_t>(data.size());
}

namespace {
std::uint64_t copy_out(const std::vector<std::byte>& data, std::uint64_t offset,
                       std::span<std::byte> out) {
  if (offset >= data.size()) return 0;
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), data.size() - offset);
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(offset), n, out.begin());
  return n;
}
}  // namespace

Result<std::uint64_t> MemBackend::read(int fd, std::uint64_t offset, std::span<std::byte> out) {
  auto file = find(fd, /*wait=*/true);
  if (!file.is_ok()) return file.status();
  std::shared_lock lock(file.value()->mu);
  return copy_out(file.value()->data, offset, out);
}

Result<std::uint64_t> MemBackend::try_read(int fd, std::uint64_t offset,
                                           std::span<std::byte> out) {
  auto file = find(fd, /*wait=*/false);
  if (!file.is_ok()) return file.status();
  std::shared_lock lock(file.value()->mu, std::try_to_lock);
  if (!lock.owns_lock()) return Status(Errc::would_block, "file busy");
  return copy_out(file.value()->data, offset, out);
}

Status MemBackend::fsync(int fd) {
  std::shared_lock lock(mu_);
  return open_.contains(fd) ? Status::ok() : Status(Errc::bad_descriptor, "unknown fd");
}

Status MemBackend::close(int fd) {
  std::unique_lock lock(mu_);
  return open_.erase(fd) > 0 ? Status::ok() : Status(Errc::bad_descriptor, "unknown fd");
}

Result<std::uint64_t> MemBackend::size(int fd) {
  auto file = find(fd, /*wait=*/true);
  if (!file.is_ok()) return file.status();
  std::shared_lock lock(file.value()->mu);
  return static_cast<std::uint64_t>(file.value()->data.size());
}

std::vector<std::byte> MemBackend::snapshot(const std::string& path) const {
  std::shared_ptr<File> file;
  {
    std::shared_lock lock(mu_);
    auto it = by_path_.find(path);
    if (it == by_path_.end()) return {};
    file = it->second;
  }
  std::shared_lock lock(file->mu);
  return file->data;
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

Result<int> FileBackend::host_fd(int fd) const {
  std::shared_lock lock(mu_);
  auto it = open_.find(fd);
  if (it == open_.end()) return Status(Errc::bad_descriptor, "unknown fd");
  return it->second;
}

Status FileBackend::open(int fd, const std::string& path) {
  if (path.find("..") != std::string::npos) {
    return Status(Errc::invalid_argument, "path escapes the backend root");
  }
  std::unique_lock lock(mu_);
  if (open_.contains(fd)) return Status(Errc::invalid_argument, "fd already open");
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  const std::string full = root_ + "/" + path;
  const int hfd = ::open(full.c_str(), O_RDWR | O_CREAT, 0644);
  if (hfd < 0) return Status(Errc::io_error, std::string("open: ") + std::strerror(errno));
  open_[fd] = hfd;
  return Status::ok();
}

Result<std::uint64_t> FileBackend::write(int fd, std::uint64_t offset,
                                         std::span<const std::byte> data) {
  auto hfd = host_fd(fd);
  if (!hfd.is_ok()) return hfd.status();
  std::size_t put = 0;
  while (put < data.size()) {
    const ssize_t r = ::pwrite(hfd.value(), data.data() + put, data.size() - put,
                               static_cast<off_t>(offset + put));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status(Errc::io_error, std::string("pwrite: ") + std::strerror(errno));
    }
    put += static_cast<std::size_t>(r);
  }
  return static_cast<std::uint64_t>(put);
}

Result<std::uint64_t> FileBackend::read(int fd, std::uint64_t offset, std::span<std::byte> out) {
  auto hfd = host_fd(fd);
  if (!hfd.is_ok()) return hfd.status();
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t r = ::pread(hfd.value(), out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (r == 0) break;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status(Errc::io_error, std::string("pread: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return static_cast<std::uint64_t>(got);
}

Status FileBackend::fsync(int fd) {
  auto hfd = host_fd(fd);
  if (!hfd.is_ok()) return hfd.status();
  if (::fsync(hfd.value()) != 0) {
    return Status(Errc::io_error, std::string("fsync: ") + std::strerror(errno));
  }
  return Status::ok();
}

Result<std::uint64_t> FileBackend::size(int fd) {
  auto hfd = host_fd(fd);
  if (!hfd.is_ok()) return hfd.status();
  struct stat st{};
  if (::fstat(hfd.value(), &st) != 0) {
    return Status(Errc::io_error, std::string("fstat: ") + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

Status FileBackend::close(int fd) {
  std::unique_lock lock(mu_);
  auto it = open_.find(fd);
  if (it == open_.end()) return Status(Errc::bad_descriptor, "unknown fd");
  ::close(it->second);
  open_.erase(it);
  return Status::ok();
}

}  // namespace iofwd::rt
