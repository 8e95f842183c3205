// Write-ahead journal semantics (DESIGN.md §16): record framing and replay,
// torn-tail and corrupt-record tolerance, idle truncation and its failure
// path, the StagedModel's newest-wins byte semantics, and the full
// crash -> recover cycle through
// BurstBufferBackend ("acked => journaled" made observable).
#include "bb/journal.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>  // mkdtemp

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bb/burst_buffer.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"

namespace iofwd::bb {
namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

// A fresh journal directory, removed at scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/iofwd-journal-test-XXXXXX";
    char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) path = d;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

std::unique_ptr<Journal> open_journal(const std::string& dir,
                                      std::uint64_t segment_bytes = 8ull << 20) {
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.segment_bytes = segment_bytes;
  auto r = Journal::open(cfg);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(Journal, RecordsRoundTripThroughReplay) {
  TempDir td;
  const auto data = pattern(4096, 0xa11);
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(7, "f").is_ok());
    ASSERT_TRUE(j->append_stage(7, 100, data).is_ok());
    ASSERT_TRUE(j->append_stage(7, 8192, std::span(data).subspan(0, 512)).is_ok());
    EXPECT_EQ(j->live_bytes(), 4096u + 512u);
  }
  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 3u);
  EXPECT_FALSE(counts.value().torn);
  EXPECT_EQ(counts.value().discarded_bytes, 0u);

  auto files = model.files();
  ASSERT_EQ(files.size(), 1u);
  const auto& f = files.at(7);
  EXPECT_EQ(f.path, "f");
  ASSERT_EQ(f.runs.size(), 2u);
  EXPECT_EQ(f.runs[0].offset, 100u);
  EXPECT_EQ(f.runs[0].bytes, data);
  EXPECT_EQ(f.runs[1].offset, 8192u);
  EXPECT_EQ(f.runs[1].bytes.size(), 512u);
}

TEST(Journal, RetireAndCloseShrinkTheLiveModel) {
  TempDir td;
  const auto data = pattern(1024, 0xbee);
  auto j = open_journal(td.path);
  ASSERT_TRUE(j->append_open(1, "a").is_ok());
  ASSERT_TRUE(j->append_stage(1, 0, data).is_ok());
  ASSERT_TRUE(j->append_retire(1, 0, 256).is_ok());
  EXPECT_EQ(j->live_bytes(), 768u);

  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  auto files = model.files();
  ASSERT_EQ(files.at(1).runs.size(), 1u);
  EXPECT_EQ(files.at(1).runs[0].offset, 256u);
  EXPECT_EQ(files.at(1).runs[0].bytes.size(), 768u);
  EXPECT_EQ(model.live_bytes(), 768u);
}

TEST(Journal, TornTailStopsReplayAtTheLastIntactRecord) {
  TempDir td;
  const auto data = pattern(2048, 0xc0de);
  std::string seg;
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(3, "torn").is_ok());
    ASSERT_TRUE(j->append_stage(3, 0, data).is_ok());
    ASSERT_TRUE(j->append_stage(3, 4096, data).is_ok());
  }
  // Tear the tail: chop the last record mid-body, as a crash mid-append
  // would.
  for (const auto& e : std::filesystem::directory_iterator(td.path)) seg = e.path().string();
  ASSERT_FALSE(seg.empty());
  const auto full = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, full - 100);

  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 2u);  // open + first stage survive
  EXPECT_TRUE(counts.value().torn);
  EXPECT_GT(counts.value().discarded_bytes, 0u);
  ASSERT_EQ(model.files().at(3).runs.size(), 1u);
  EXPECT_EQ(model.files().at(3).runs[0].bytes, data);
}

TEST(Journal, CorruptRecordDiscardsItAndEverythingAfter) {
  TempDir td;
  const auto data = pattern(512, 0xdead);
  std::string seg;
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(5, "x").is_ok());
    ASSERT_TRUE(j->append_stage(5, 0, data).is_ok());
    ASSERT_TRUE(j->append_stage(5, 1024, data).is_ok());
  }
  for (const auto& e : std::filesystem::directory_iterator(td.path)) seg = e.path().string();
  // Flip a byte inside the second stage record's payload (well past the
  // open + first stage records near the head).
  {
    std::FILE* f = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long pos = static_cast<long>(std::filesystem::file_size(seg)) - 64;
    std::fseek(f, pos, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, pos, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }

  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 2u);
  EXPECT_TRUE(counts.value().torn);
  EXPECT_GT(counts.value().discarded_bytes, 0u);
  ASSERT_EQ(model.files().at(5).runs.size(), 1u);
  EXPECT_EQ(model.files().at(5).runs[0].offset, 0u);
}

TEST(Journal, IdleTruncationCompactsTheLogAndKeepsOpens) {
  TempDir td;
  const auto data = pattern(4096, 0xf00);
  auto j = open_journal(td.path);
  ASSERT_TRUE(j->append_open(9, "keep").is_ok());
  ASSERT_TRUE(j->append_stage(9, 0, data).is_ok());
  const auto busy = j->size_bytes();
  // Retiring the only staged extent drops live bytes to zero: the log is
  // truncated and reseeded with the OPEN record.
  ASSERT_TRUE(j->append_retire(9, 0, 4096).is_ok());
  EXPECT_EQ(j->live_bytes(), 0u);
  EXPECT_GE(j->truncations(), 1u);
  EXPECT_LT(j->size_bytes(), busy);

  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  auto files = model.files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.at(9).path, "keep");
  EXPECT_TRUE(files.at(9).runs.empty());
}

TEST(Journal, FailedTruncationKeepsTheOldSegments) {
  TempDir td;
  const auto data = pattern(4096, 0x7a7);
  {
    JournalConfig cfg;
    cfg.dir = td.path;
    cfg.fsync_each = true;  // also walks the directory-fsync path
    auto r = Journal::open(cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    auto j = std::move(r).value();
    ASSERT_TRUE(j->append_open(3, "bound").is_ok());
    ASSERT_TRUE(j->append_stage(3, 0, data).is_ok());
    // The truncation's fresh segment would be wal-000002.seg: a directory
    // already sits at that path, so creating it fails.
    const std::string blocker = td.path + "/wal-000002.seg";
    ASSERT_TRUE(std::filesystem::create_directory(blocker));
    EXPECT_FALSE(j->append_retire(3, 0, 4096).is_ok()) << "the new segment cannot exist";
    EXPECT_TRUE(std::filesystem::exists(td.path + "/wal-000001.seg"))
        << "the old segment was unlinked before its replacement existed";
    std::filesystem::remove(blocker);
  }
  // A restarted journal still replays the descriptor binding.
  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  const auto files = model.files();
  ASSERT_EQ(files.count(3), 1u) << "the OPEN binding was lost";
  EXPECT_EQ(files.at(3).path, "bound");
  EXPECT_TRUE(files.at(3).runs.empty()) << "the RETIRE landed before the truncation";
}

TEST(Journal, CrashDuringRecoveryKeepsStagedRuns) {
  TempDir td;
  const auto a = pattern(4096, 0x51);
  const auto b = pattern(4096, 0x52);
  const auto c = pattern(4096, 0x53);
  const auto gone = pattern(4096, 0x54);
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(1, "one").is_ok());
    ASSERT_TRUE(j->append_stage(1, 0, a).is_ok());
    ASSERT_TRUE(j->append_stage(1, 8192, gone).is_ok());
    ASSERT_TRUE(j->append_retire(1, 8192, 4096).is_ok());
    ASSERT_TRUE(j->append_open(2, "two").is_ok());
    ASSERT_TRUE(j->append_stage(2, 0, b).is_ok());
    ASSERT_TRUE(j->append_stage(2, 4096, c).is_ok());
  }  // first crash
  const auto replay_files = [&](Journal& j) {
    StagedModel model;
    auto counts = j.replay(model.visitor());
    EXPECT_TRUE(counts.is_ok());
    return model.files();
  };
  const auto expect_recovered = [&](const std::map<int, StagedModel::File>& files) {
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files.at(1).path, "one");
    ASSERT_EQ(files.at(1).runs.size(), 1u) << "a retired run came back";
    EXPECT_EQ(files.at(1).runs[0].offset, 0u);
    EXPECT_EQ(files.at(1).runs[0].bytes, a);
    EXPECT_EQ(files.at(2).path, "two");
    ASSERT_EQ(files.at(2).runs.size(), 2u) << "a staged run was lost";
    EXPECT_EQ(files.at(2).runs[0].bytes, b);
    EXPECT_EQ(files.at(2).runs[1].offset, 4096u);
    EXPECT_EQ(files.at(2).runs[1].bytes, c);
  };
  {
    // Recovery starts compacting and re-appends descriptor 1 only, then the
    // process dies again before the commit.
    auto j = open_journal(td.path);
    const auto files = replay_files(*j);
    expect_recovered(files);
    ASSERT_TRUE(j->begin_compaction().is_ok());
    ASSERT_TRUE(j->append_open(1, files.at(1).path).is_ok());
    for (const auto& run : files.at(1).runs) {
      ASSERT_TRUE(j->append_stage(1, run.offset, run.bytes).is_ok());
    }
  }  // second crash, inside recovery
  auto j = open_journal(td.path);
  const auto files = replay_files(*j);
  expect_recovered(files);

  // A recovery that re-appends everything and commits leaves one segment
  // with the same state.
  ASSERT_TRUE(j->begin_compaction().is_ok());
  for (const auto& [fd, file] : files) {
    ASSERT_TRUE(j->append_open(fd, file.path).is_ok());
    for (const auto& run : file.runs) {
      ASSERT_TRUE(j->append_stage(fd, run.offset, run.bytes).is_ok());
    }
  }
  ASSERT_TRUE(j->commit_compaction().is_ok());
  std::size_t segments = 0;
  for (const auto& e : std::filesystem::directory_iterator(td.path)) {
    (void)e;
    ++segments;
  }
  EXPECT_EQ(segments, 1u);
  expect_recovered(replay_files(*j));
}

TEST(Journal, RotatesSegmentsPastTheConfiguredSize) {
  TempDir td;
  const auto data = pattern(1024, 0xabc);
  auto j = open_journal(td.path, /*segment_bytes=*/4096);
  ASSERT_TRUE(j->append_open(2, "rot").is_ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(j->append_stage(2, static_cast<std::uint64_t>(i) * 1024, data).is_ok());
  }
  std::size_t segments = 0;
  for (const auto& e : std::filesystem::directory_iterator(td.path)) {
    (void)e;
    ++segments;
  }
  EXPECT_GT(segments, 1u);

  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 17u);
  EXPECT_EQ(model.live_bytes(), 16u * 1024u);
}

TEST(StagedModel, NewestWriteWinsOnOverlap) {
  StagedModel m;
  m.open(1, "w");
  const auto a = pattern(1000, 1);
  const auto b = pattern(400, 2);
  m.stage(1, 0, a);
  m.stage(1, 300, b);  // overwrite the middle
  auto files = m.files();
  const auto& runs = files.at(1).runs;
  // One contiguous byte image [0, 1000): a's head, b, a's tail.
  std::vector<std::byte> flat(1000);
  for (const auto& r : runs) {
    ASSERT_LE(r.offset + r.bytes.size(), flat.size());
    std::copy(r.bytes.begin(), r.bytes.end(),
              flat.begin() + static_cast<std::ptrdiff_t>(r.offset));
  }
  for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(flat[i], a[i]) << i;
  for (std::size_t i = 0; i < 400; ++i) EXPECT_EQ(flat[300 + i], b[i]) << i;
  for (std::size_t i = 700; i < 1000; ++i) EXPECT_EQ(flat[i], a[i]) << i;
  EXPECT_EQ(m.live_bytes(), 1000u);
}

// ---------------------------------------------------------------------------
// Crash -> recover through the burst buffer
// ---------------------------------------------------------------------------

BurstBufferConfig journaled_config(const std::string& dir, obs::MetricRegistry* reg) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 16ull << 20;
  cfg.high_watermark = 1.0;  // quiet: no background flushing
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = cfg.capacity_bytes;
  cfg.journal_dir = dir;
  cfg.registry = reg;
  return cfg;
}

TEST(JournalRecovery, CrashLosesNothingThatWasAcked) {
  TempDir td;
  auto mem = std::make_shared<rt::MemBackend>();
  // Non-owning view so the same MemBackend survives the "crash".
  struct View final : rt::IoBackend {
    std::shared_ptr<rt::MemBackend> m;
    explicit View(std::shared_ptr<rt::MemBackend> mm) : m(std::move(mm)) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };

  const auto d1 = pattern(8192, 0x111);
  const auto d2 = pattern(4096, 0x222);
  {
    obs::MetricRegistry reg;
    BurstBufferBackend bbuf(std::make_unique<View>(mem), journaled_config(td.path, &reg));
    ASSERT_TRUE(bbuf.open(1, "crashfile").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, d1).is_ok());
    ASSERT_TRUE(bbuf.write(1, 65536, d2).is_ok());
    // Both writes were acked into the cache; nothing has been flushed.
    EXPECT_TRUE(mem->snapshot("crashfile").empty());
    bbuf.crash_discard();
    EXPECT_TRUE(bbuf.crashed());
    // The crash destroyed the in-memory staging; the backend still has
    // nothing. Only the journal knows the bytes.
    EXPECT_TRUE(mem->snapshot("crashfile").empty());
  }

  obs::MetricRegistry reg;
  BurstBufferBackend bbuf(std::make_unique<View>(mem), journaled_config(td.path, &reg));
  // Recovery rebuilt the cache: read-your-writes works before any flush.
  std::vector<std::byte> out(d1.size());
  auto r = bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), d1.size());
  EXPECT_EQ(out, d1);

  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("bb.journal.recovered"));
  EXPECT_GE(snap.counters.at("bb.journal.recovered"), 3u);  // open + 2 stages
  EXPECT_EQ(snap.counters.at("bb.journal.discarded"), 0u);

  // Draining pushes the recovered extents to the real backend.
  bbuf.drain_all();
  auto bytes = mem->snapshot("crashfile");
  ASSERT_EQ(bytes.size(), 65536u + d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_EQ(bytes[i], d1[i]) << i;
  for (std::size_t i = 0; i < d2.size(); ++i) EXPECT_EQ(bytes[65536 + i], d2[i]) << i;
}

TEST(JournalRecovery, FlushedExtentsAreNotResurrected) {
  TempDir td;
  auto mem = std::make_shared<rt::MemBackend>();
  struct View final : rt::IoBackend {
    rt::MemBackend* m;
    explicit View(rt::MemBackend* mm) : m(mm) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };

  const auto d1 = pattern(4096, 0x333);
  {
    obs::MetricRegistry reg;
    BurstBufferBackend bbuf(std::make_unique<View>(mem.get()),
                            journaled_config(td.path, &reg));
    ASSERT_TRUE(bbuf.open(1, "flushed").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, d1).is_ok());
    // fsync flushes the staged extent (and journals its RETIRE).
    ASSERT_TRUE(bbuf.fsync(1).is_ok());
    EXPECT_EQ(mem->snapshot("flushed").size(), d1.size());
    bbuf.crash_discard();
  }

  // Overwrite the flushed bytes directly in the "PFS": if recovery wrongly
  // resurrected the retired extent, a later drain would clobber this.
  const auto newer = pattern(4096, 0x444);
  ASSERT_TRUE(mem->open(99, "flushed").is_ok());
  ASSERT_TRUE(mem->write(99, 0, newer).is_ok());

  obs::MetricRegistry reg;
  BurstBufferBackend bbuf(std::make_unique<View>(mem.get()),
                          journaled_config(td.path, &reg));
  bbuf.drain_all();
  auto bytes = mem->snapshot("flushed");
  ASSERT_EQ(bytes.size(), newer.size());
  EXPECT_EQ(bytes, newer);
}

}  // namespace
}  // namespace iofwd::bb
