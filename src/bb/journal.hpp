// Write-ahead journal for the burst-buffer staging cache (DESIGN.md §16).
//
// The async-staging design acks a write as soon as it lands in the cache,
// which makes a process crash silently destructive: every acked-but-unflushed
// extent dies with the ION. The journal closes that hole the BurstMem way —
// log-structured persistence of staged writes. Each staged extent is appended
// here *before* the ack; each flushed (or evicted) extent appends a RETIRE so
// replay knows the bytes are durable in the inner backend; OPEN/CLOSE records
// carry the descriptor→path binding replay needs to rebind files.
//
// On-disk format: a directory of append-only segment files
// (`wal-NNNNNN.seg`), each starting with an 8-byte magic and holding
// CRC32C-framed records:
//
//   u32 body_len | u32 crc32c(body) | body
//   body: u8 type | i32 fd | u64 offset | u64 len | payload[...]
//
// Replay walks the segments in order and stops at the first short or
// corrupt record — a torn tail from a mid-append crash is expected and
// tolerated; everything before it is intact by CRC.
//
// Truncation: the journal tracks the live (staged-minus-retired) byte
// ranges per descriptor under its append lock. The moment live bytes hit
// zero — every staged extent has been flushed — a fresh segment is seeded
// with OPEN records for the still-open descriptors and then every older
// segment is deleted, so a drain-heavy workload keeps the log near-empty
// and a failed reseed never loses the descriptor→path bindings. Within a
// busy interval, appends rotate to a new segment past `segment_bytes`.
//
// Thread safety: every operation takes one internal mutex; callers already
// serialize per-descriptor mutation order (the burst buffer appends under
// its per-descriptor lock), which is the order replay depends on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"

namespace iofwd::bb {

struct JournalConfig {
  std::string dir;                           // segment directory (created if absent)
  std::uint64_t segment_bytes = 8ull << 20;  // rotate appends past this size
  // fdatasync after every append, and fsync the directory after a segment
  // is created or old ones are unlinked: survives host power loss, not just
  // process death. Off by default — the crash model this journal defends
  // against is a dying ION process, and the page cache outlives that.
  bool fsync_each = false;
};

// Replay callbacks, invoked in append order.
struct JournalVisitor {
  std::function<void(int fd, const std::string& path)> on_open;
  std::function<void(int fd, std::uint64_t offset, std::span<const std::byte> data)> on_stage;
  std::function<void(int fd, std::uint64_t offset, std::uint64_t len)> on_retire;
  std::function<void(int fd)> on_close;
};

struct JournalReplayCounts {
  std::uint64_t applied = 0;          // intact records delivered to the visitor
  std::uint64_t discarded_bytes = 0;  // bytes dropped at the first bad record
  bool torn = false;                  // replay stopped before the end of the log
};

class Journal {
 public:
  // Opens (creating if needed) the journal directory. Existing segments are
  // left untouched for replay(); a fresh directory starts with one empty
  // segment. Callers replay() and compact (below) before the first append.
  static Result<std::unique_ptr<Journal>> open(JournalConfig cfg);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Walk every intact record in segment order. Stops (torn = true) at the
  // first short read or CRC mismatch and reports the bytes left behind.
  Result<JournalReplayCounts> replay(const JournalVisitor& v);

  // Post-replay compaction, in two steps so a crash in between loses
  // nothing. begin_compaction() starts a fresh segment and keeps the old
  // ones; the caller re-appends the recovered state; commit_compaction()
  // then unlinks the old segments (and, with fsync_each, fsyncs the
  // directory). A crash before the commit replays the old segments and
  // then the partial re-append, which only repeats what they hold. Idle
  // truncation waits for the commit.
  Status begin_compaction();
  Status commit_compaction();

  Status append_open(int fd, std::string_view path);
  Status append_stage(int fd, std::uint64_t offset, std::span<const std::byte> data);
  Status append_retire(int fd, std::uint64_t offset, std::uint64_t len);
  Status append_close(int fd);

  // Staged-minus-retired bytes the log currently protects.
  [[nodiscard]] std::uint64_t live_bytes() const;
  // On-disk bytes across every segment.
  [[nodiscard]] std::uint64_t size_bytes() const;
  // Idle truncations performed (live bytes hit zero).
  [[nodiscard]] std::uint64_t truncations() const;
  [[nodiscard]] const std::string& dir() const { return cfg_.dir; }

  static constexpr std::uint64_t kSegmentMagicLen = 8;

 private:
  enum class RecordType : std::uint8_t { open = 1, stage = 2, retire = 3, close = 4 };
  static constexpr std::size_t kBodyFixed = 1 + 4 + 8 + 8;  // type, fd, offset, len
  static constexpr std::size_t kFrameLen = 8;               // body_len + crc

  explicit Journal(JournalConfig cfg) : cfg_(std::move(cfg)) {}

  Status open_segment_locked(std::uint32_t index);
  Status append_locked(RecordType type, int fd, std::uint64_t offset, std::uint64_t len,
                       std::span<const std::byte> payload);
  // Start a fresh segment reseeded with OPEN records for open_paths_, then
  // delete every older segment.
  Status truncate_all_locked();
  // Unlink the `n` oldest segments, which hold `bytes` together, then sync
  // the directory.
  Status unlink_oldest_locked(std::size_t n, std::uint64_t bytes);
  // fsync the journal directory when fsync_each is set (segment creation
  // and unlinks); a no-op otherwise.
  Status sync_dir_locked() const;
  [[nodiscard]] std::string segment_path(std::uint32_t index) const;

  JournalConfig cfg_;
  mutable std::mutex mu_;
  std::vector<std::uint32_t> segments_;  // existing segment indices, ascending
  int cur_fd_ = -1;                      // append fd of the last segment
  std::uint64_t cur_size_ = 0;           // bytes in the last segment
  std::uint64_t total_size_ = 0;         // bytes across all segments
  std::uint64_t truncations_ = 0;
  // Old segments a begun compaction unlinks at its commit (0 = none pending).
  std::size_t compact_segments_ = 0;
  std::uint64_t compact_bytes_ = 0;

  // Live-range model: per descriptor, the staged byte ranges not yet
  // retired. Maintained under mu_ so the idle-truncation decision is atomic
  // with appends (a racing stage can never be dropped by a truncate).
  std::map<int, std::map<std::uint64_t, std::uint64_t>> live_;  // fd -> start -> len
  std::uint64_t live_bytes_ = 0;
  std::map<int, std::string> open_paths_;  // replayed into a fresh segment on truncate
};

// Byte-accurate replay model: the per-descriptor staged contents a journal
// log describes, with newest-wins overwrite semantics matching ExtentIndex.
// Recovery replays the log into one of these, then re-stages the surviving
// runs into the real cache; tests use it to assert replay semantics
// directly. Not thread-safe (replay is single-threaded).
class StagedModel {
 public:
  // A visitor that applies records to this model.
  [[nodiscard]] JournalVisitor visitor();

  void open(int fd, std::string path);
  void stage(int fd, std::uint64_t offset, std::span<const std::byte> data);
  void retire(int fd, std::uint64_t offset, std::uint64_t len);
  void close(int fd);

  struct Run {
    std::uint64_t offset = 0;
    std::vector<std::byte> bytes;
  };
  struct File {
    std::string path;
    std::vector<Run> runs;  // ascending, non-overlapping
  };
  // Every descriptor still open, with its live runs (possibly none).
  [[nodiscard]] std::map<int, File> files() const;
  [[nodiscard]] std::uint64_t live_bytes() const;

 private:
  struct Entry {
    std::string path;
    std::map<std::uint64_t, std::vector<std::byte>> runs;  // start -> bytes
  };
  static void erase_range(Entry& e, std::uint64_t offset, std::uint64_t len);

  std::map<int, Entry> fds_;
};

}  // namespace iofwd::bb
