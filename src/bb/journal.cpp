#include "bb/journal.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "core/crc32c.hpp"

namespace iofwd::bb {

namespace {

constexpr char kSegmentMagic[Journal::kSegmentMagicLen + 1] = "IOFWDWAL";
// A stage payload can be at most one wire payload (256 MiB); anything bigger
// in a length field is corruption, not data.
constexpr std::uint32_t kMaxBodyLen = (256u << 20) + 64;

void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}
void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Write every byte of the gathered iov, resuming after short writes.
Status writev_all(int fd, iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    ssize_t w = ::writev(fd, iov, iovcnt);
    if (w < 0) {
      if (errno == EINTR) continue;
      return {Errc::io_error, std::string("journal write: ") + std::strerror(errno)};
    }
    auto done = static_cast<std::size_t>(w);
    while (iovcnt > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<std::byte*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return Status::ok();
}

// Insert [off, off+len) into a start->len range map, newest-wins.
void range_erase(std::map<std::uint64_t, std::uint64_t>& m, std::uint64_t off, std::uint64_t len,
                 std::uint64_t& live) {
  if (len == 0) return;
  const std::uint64_t end = off + len;
  auto it = m.lower_bound(off);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second > off) it = prev;
  }
  while (it != m.end() && it->first < end) {
    const std::uint64_t s = it->first;
    const std::uint64_t e = s + it->second;
    it = m.erase(it);
    live -= e - s;
    if (s < off) {
      m.emplace(s, off - s);
      live += off - s;
    }
    if (e > end) {
      it = m.emplace(end, e - end).first;
      live += e - end;
      ++it;
    }
  }
}

void range_insert(std::map<std::uint64_t, std::uint64_t>& m, std::uint64_t off, std::uint64_t len,
                  std::uint64_t& live) {
  if (len == 0) return;
  range_erase(m, off, len, live);
  m.emplace(off, len);
  live += len;
}

}  // namespace

Result<std::unique_ptr<Journal>> Journal::open(JournalConfig cfg) {
  if (cfg.dir.empty()) return {Errc::invalid_argument, "journal dir must not be empty"};
  if (cfg.segment_bytes < 4096) cfg.segment_bytes = 4096;
  std::error_code ec;
  std::filesystem::create_directories(cfg.dir, ec);
  if (ec) return {Errc::io_error, "journal mkdir " + cfg.dir + ": " + ec.message()};

  auto j = std::unique_ptr<Journal>(new Journal(std::move(cfg)));
  // Discover existing segments (ascending index order = append order).
  for (const auto& ent : std::filesystem::directory_iterator(j->cfg_.dir, ec)) {
    const std::string name = ent.path().filename().string();
    unsigned idx = 0;
    if (std::sscanf(name.c_str(), "wal-%06u.seg", &idx) == 1) {
      j->segments_.push_back(idx);
      std::error_code sec;
      j->total_size_ += std::filesystem::file_size(ent.path(), sec);
    }
  }
  if (ec) return {Errc::io_error, "journal scan " + j->cfg_.dir + ": " + ec.message()};
  std::sort(j->segments_.begin(), j->segments_.end());

  if (j->segments_.empty()) {
    std::lock_guard lk(j->mu_);
    if (Status st = j->open_segment_locked(1); !st.is_ok()) return st;
  } else {
    // Reopen the last segment for append; replay() reads them all.
    std::lock_guard lk(j->mu_);
    const std::string path = j->segment_path(j->segments_.back());
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status{Errc::io_error, "journal reopen " + path + ": " + std::strerror(errno)};
    }
    j->cur_fd_ = fd;
    std::error_code sec;
    j->cur_size_ = std::filesystem::file_size(path, sec);
  }
  return j;
}

Journal::~Journal() {
  if (cur_fd_ >= 0) ::close(cur_fd_);
}

std::string Journal::segment_path(std::uint32_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06u.seg", index);
  return cfg_.dir + "/" + name;
}

Status Journal::open_segment_locked(std::uint32_t index) {
  const std::string path = segment_path(index);
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return {Errc::io_error, "journal create " + path + ": " + std::strerror(errno)};
  }
  std::byte magic[kSegmentMagicLen];
  std::memcpy(magic, kSegmentMagic, kSegmentMagicLen);
  iovec iov{magic, kSegmentMagicLen};
  if (Status st = writev_all(fd, &iov, 1); !st.is_ok()) {
    ::close(fd);
    return st;
  }
  if (cur_fd_ >= 0) ::close(cur_fd_);
  cur_fd_ = fd;
  cur_size_ = kSegmentMagicLen;
  total_size_ += kSegmentMagicLen;
  segments_.push_back(index);
  return sync_dir_locked();  // make the new directory entry durable
}

Status Journal::append_locked(RecordType type, int fd, std::uint64_t offset, std::uint64_t len,
                              std::span<const std::byte> payload) {
  const std::size_t body_len = kBodyFixed + payload.size();
  const std::size_t rec_len = kFrameLen + body_len;
  if (cur_fd_ < 0) return {Errc::internal, "journal has no open segment"};
  if (cur_size_ + rec_len > cfg_.segment_bytes && cur_size_ > kSegmentMagicLen) {
    if (Status st = open_segment_locked(segments_.back() + 1); !st.is_ok()) return st;
  }

  // Frame and fixed body header on the stack; the payload is gathered
  // straight from the caller's bytes (no bounce copy), and the CRC covers
  // the header and then the payload.
  std::array<std::byte, kFrameLen + kBodyFixed> head{};
  std::byte* body = head.data() + kFrameLen;
  body[0] = static_cast<std::byte>(type);
  put_u32(body + 1, static_cast<std::uint32_t>(fd));
  put_u64(body + 5, offset);
  put_u64(body + 13, len);
  put_u32(head.data(), static_cast<std::uint32_t>(body_len));
  put_u32(head.data() + 4, crc32c_extend(crc32c(body, kBodyFixed), payload));

  std::array<iovec, 2> iov{{{head.data(), head.size()},
                            {const_cast<std::byte*>(payload.data()), payload.size()}}};
  if (Status st = writev_all(cur_fd_, iov.data(), payload.empty() ? 1 : 2); !st.is_ok()) {
    return st;
  }
  if (cfg_.fsync_each) {
    if (::fdatasync(cur_fd_) != 0) {
      return {Errc::io_error, std::string("journal fdatasync: ") + std::strerror(errno)};
    }
  }
  cur_size_ += rec_len;
  total_size_ += rec_len;
  return Status::ok();
}

Status Journal::truncate_all_locked() {
  // A pending compaction's old segments hold state not yet re-appended.
  if (compact_segments_ > 0) return Status::ok();
  // Everything staged has been retired: the log is pure garbage except for
  // the descriptor→path bindings. Seed them into a fresh segment first and
  // unlink the old segments only then, so a failed creation or reseed leaves
  // the bindings on disk.
  const std::size_t old = segments_.size();
  const std::uint64_t old_size = total_size_;
  if (Status st = open_segment_locked(old == 0 ? 1 : segments_.back() + 1); !st.is_ok()) {
    return st;
  }
  for (const auto& [fd, path] : open_paths_) {
    const auto bytes = std::as_bytes(std::span(path.data(), path.size()));
    if (Status st = append_locked(RecordType::open, fd, 0, path.size(), bytes); !st.is_ok()) {
      return st;
    }
  }
  ++truncations_;
  return unlink_oldest_locked(old, old_size);
}

Status Journal::unlink_oldest_locked(std::size_t n, std::uint64_t bytes) {
  for (std::size_t i = 0; i < n; ++i) {
    std::error_code ec;
    std::filesystem::remove(segment_path(segments_[i]), ec);
  }
  segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(n));
  total_size_ -= bytes;
  return sync_dir_locked();
}

Status Journal::sync_dir_locked() const {
  if (!cfg_.fsync_each) return Status::ok();
  const int dfd = ::open(cfg_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return {Errc::io_error, "journal dir open " + cfg_.dir + ": " + std::strerror(errno)};
  }
  const int rc = ::fsync(dfd);
  const int err = errno;
  ::close(dfd);
  if (rc != 0) return {Errc::io_error, std::string("journal dir fsync: ") + std::strerror(err)};
  return Status::ok();
}

Status Journal::append_open(int fd, std::string_view path) {
  std::lock_guard lk(mu_);
  open_paths_[fd] = std::string(path);
  const auto bytes = std::as_bytes(std::span(path.data(), path.size()));
  return append_locked(RecordType::open, fd, 0, path.size(), bytes);
}

Status Journal::append_stage(int fd, std::uint64_t offset, std::span<const std::byte> data) {
  std::lock_guard lk(mu_);
  if (Status st = append_locked(RecordType::stage, fd, offset, data.size(), data); !st.is_ok()) {
    return st;
  }
  range_insert(live_[fd], offset, data.size(), live_bytes_);
  return Status::ok();
}

Status Journal::append_retire(int fd, std::uint64_t offset, std::uint64_t len) {
  std::lock_guard lk(mu_);
  if (Status st = append_locked(RecordType::retire, fd, offset, len, {}); !st.is_ok()) return st;
  auto it = live_.find(fd);
  if (it != live_.end()) {
    range_erase(it->second, offset, len, live_bytes_);
    if (it->second.empty()) live_.erase(it);
  }
  if (live_bytes_ == 0 && (segments_.size() > 1 || cur_size_ > kSegmentMagicLen)) {
    return truncate_all_locked();
  }
  return Status::ok();
}

Status Journal::append_close(int fd) {
  std::lock_guard lk(mu_);
  open_paths_.erase(fd);
  if (Status st = append_locked(RecordType::close, fd, 0, 0, {}); !st.is_ok()) return st;
  auto it = live_.find(fd);
  if (it != live_.end()) {
    // Close implies drained; drop any straggler ranges defensively.
    for (const auto& [s, l] : it->second) live_bytes_ -= l;
    live_.erase(it);
  }
  if (live_bytes_ == 0 && (segments_.size() > 1 || cur_size_ > kSegmentMagicLen)) {
    return truncate_all_locked();
  }
  return Status::ok();
}

Result<JournalReplayCounts> Journal::replay(const JournalVisitor& v) {
  std::lock_guard lk(mu_);
  JournalReplayCounts counts;
  std::uint64_t remaining_after = 0;  // bytes in segments after a corrupt one
  bool stopped = false;

  for (std::size_t si = 0; si < segments_.size(); ++si) {
    const std::string path = segment_path(segments_[si]);
    std::vector<std::byte> buf;
    {
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      if (ec) return Status{Errc::io_error, "journal stat " + path + ": " + ec.message()};
      buf.resize(size);
      int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        return Status{Errc::io_error, "journal read " + path + ": " + std::strerror(errno)};
      }
      std::size_t off = 0;
      while (off < buf.size()) {
        ssize_t r = ::read(fd, buf.data() + off, buf.size() - off);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) break;
        off += static_cast<std::size_t>(r);
      }
      ::close(fd);
      buf.resize(off);
    }

    if (stopped) {
      remaining_after += buf.size();
      continue;
    }

    std::size_t pos = 0;
    if (buf.size() < kSegmentMagicLen ||
        std::memcmp(buf.data(), kSegmentMagic, kSegmentMagicLen) != 0) {
      counts.discarded_bytes += buf.size();
      stopped = true;
      continue;
    }
    pos = kSegmentMagicLen;

    while (pos < buf.size()) {
      if (buf.size() - pos < kFrameLen) break;  // torn frame header
      const std::uint32_t body_len = get_u32(buf.data() + pos);
      const std::uint32_t stored_crc = get_u32(buf.data() + pos + 4);
      if (body_len < kBodyFixed || body_len > kMaxBodyLen) break;
      if (buf.size() - pos - kFrameLen < body_len) break;  // torn body
      const std::byte* body = buf.data() + pos + kFrameLen;
      if (crc32c(body, body_len) != stored_crc) break;

      const auto type = static_cast<RecordType>(body[0]);
      const int fd = static_cast<int>(get_u32(body + 1));
      const std::uint64_t offset = get_u64(body + 5);
      const std::uint64_t len = get_u64(body + 13);
      const std::size_t payload_len = body_len - kBodyFixed;
      bool ok = true;
      switch (type) {
        case RecordType::open:
          ok = payload_len == len;
          if (ok && v.on_open) {
            v.on_open(fd, std::string(reinterpret_cast<const char*>(body + kBodyFixed),
                                      payload_len));
          }
          break;
        case RecordType::stage:
          ok = payload_len == len;
          if (ok && v.on_stage) v.on_stage(fd, offset, {body + kBodyFixed, payload_len});
          break;
        case RecordType::retire:
          ok = payload_len == 0;
          if (ok && v.on_retire) v.on_retire(fd, offset, len);
          break;
        case RecordType::close:
          ok = payload_len == 0;
          if (ok && v.on_close) v.on_close(fd);
          break;
        default:
          ok = false;
      }
      if (!ok) break;  // internally inconsistent record: treat as corruption
      ++counts.applied;
      pos += kFrameLen + body_len;
    }
    if (pos < buf.size()) {
      counts.discarded_bytes += buf.size() - pos;
      stopped = true;
    }
  }
  counts.discarded_bytes += remaining_after;
  counts.torn = stopped;
  return counts;
}

Status Journal::begin_compaction() {
  std::lock_guard lk(mu_);
  live_.clear();
  live_bytes_ = 0;
  open_paths_.clear();
  const std::size_t old = segments_.size();
  const std::uint64_t old_size = total_size_;
  if (Status st = open_segment_locked(old == 0 ? 1 : segments_.back() + 1); !st.is_ok()) {
    return st;
  }
  compact_segments_ = old;
  compact_bytes_ = old_size;
  return Status::ok();
}

Status Journal::commit_compaction() {
  std::lock_guard lk(mu_);
  const std::size_t n = std::exchange(compact_segments_, 0);
  return unlink_oldest_locked(n, std::exchange(compact_bytes_, 0));
}

std::uint64_t Journal::live_bytes() const {
  std::lock_guard lk(mu_);
  return live_bytes_;
}

std::uint64_t Journal::size_bytes() const {
  std::lock_guard lk(mu_);
  return total_size_;
}

std::uint64_t Journal::truncations() const {
  std::lock_guard lk(mu_);
  return truncations_;
}

// ---------------------------------------------------------------------------
// StagedModel

JournalVisitor StagedModel::visitor() {
  JournalVisitor v;
  v.on_open = [this](int fd, const std::string& path) { open(fd, path); };
  v.on_stage = [this](int fd, std::uint64_t offset, std::span<const std::byte> data) {
    stage(fd, offset, data);
  };
  v.on_retire = [this](int fd, std::uint64_t offset, std::uint64_t len) {
    retire(fd, offset, len);
  };
  v.on_close = [this](int fd) { close(fd); };
  return v;
}

void StagedModel::open(int fd, std::string path) { fds_[fd].path = std::move(path); }

void StagedModel::erase_range(Entry& e, std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t end = offset + len;
  auto it = e.runs.lower_bound(offset);
  if (it != e.runs.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  while (it != e.runs.end() && it->first < end) {
    const std::uint64_t s = it->first;
    std::vector<std::byte> bytes = std::move(it->second);
    const std::uint64_t re = s + bytes.size();
    it = e.runs.erase(it);
    if (s < offset) {
      std::vector<std::byte> head(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(offset - s));
      e.runs.emplace(s, std::move(head));
    }
    if (re > end) {
      std::vector<std::byte> tail(bytes.begin() + static_cast<std::ptrdiff_t>(end - s),
                                  bytes.end());
      it = e.runs.emplace(end, std::move(tail)).first;
      ++it;
    }
  }
}

void StagedModel::stage(int fd, std::uint64_t offset, std::span<const std::byte> data) {
  if (data.empty()) return;
  Entry& e = fds_[fd];
  erase_range(e, offset, data.size());
  e.runs.emplace(offset, std::vector<std::byte>(data.begin(), data.end()));
}

void StagedModel::retire(int fd, std::uint64_t offset, std::uint64_t len) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  erase_range(it->second, offset, len);
}

void StagedModel::close(int fd) { fds_.erase(fd); }

std::map<int, StagedModel::File> StagedModel::files() const {
  std::map<int, File> out;
  for (const auto& [fd, e] : fds_) {
    File f;
    f.path = e.path;
    for (const auto& [start, bytes] : e.runs) f.runs.push_back(Run{start, bytes});
    out.emplace(fd, std::move(f));
  }
  return out;
}

std::uint64_t StagedModel::live_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [fd, e] : fds_) {
    for (const auto& [start, bytes] : e.runs) total += bytes.size();
  }
  return total;
}

}  // namespace iofwd::bb
