// The lanes' non-blocking fast path (DESIGN.md §13): a staged write or a
// read that the backend can finish without waiting completes on the
// receiver lane, and everything else takes the worker pool exactly as
// before.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::counter;
using testsupport::gauge;
using testsupport::pattern;

// A MemBackend view whose non-blocking attempts are scripted: forward them
// to the MemBackend, keep the IoBackend default (decline), or fail them.
// Optionally holds the first worker-path write until release().
class ScriptedBackend final : public IoBackend {
 public:
  enum class Try { forward, decline, fail };

  ScriptedBackend(MemBackend& mem, Try mode) : mem_(mem), mode_(mode) {}

  // The next try_write declines once, whatever the mode.
  void decline_next_try() { decline_once_ = true; }
  void hold_first_write() { hold_ = true; }
  void wait_held() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void release() {
    {
      std::scoped_lock lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  Status open(int fd, const std::string& path) override { return mem_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    if (hold_ && !first_.exchange(true)) {
      std::unique_lock lock(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return mem_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return mem_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return mem_.fsync(fd); }
  Status close(int fd) override { return mem_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return mem_.size(fd); }
  Result<std::uint64_t> try_write(int fd, std::uint64_t offset,
                                  std::span<const std::byte> data) override {
    if (decline_once_.exchange(false)) return IoBackend::try_write(fd, offset, data);
    switch (mode_) {
      case Try::forward: return mem_.try_write(fd, offset, data);
      case Try::decline: return IoBackend::try_write(fd, offset, data);
      case Try::fail: return Status(Errc::io_error, "injected");
    }
    return Status(Errc::internal, "unreachable");
  }
  Result<std::uint64_t> try_read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return mode_ == Try::forward ? mem_.try_read(fd, offset, out)
                                 : IoBackend::try_read(fd, offset, out);
  }

 private:
  MemBackend& mem_;
  const Try mode_;
  std::atomic<bool> decline_once_{false};
  std::atomic<bool> hold_{false};
  std::atomic<bool> first_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

constexpr std::uint64_t kRegion = 64_KiB;

// One server over `backend` and one client. The file "f" is sized to
// kRegion directly on the MemBackend first, so rewrites inside it never
// grow the file.
struct Rig {
  MemBackend mem;
  ScriptedBackend* backend = nullptr;
  std::unique_ptr<IonServer> server;
  std::unique_ptr<Client> client;

  Rig(ExecModel exec, ScriptedBackend::Try mode, int workers = 4, int window = 1) {
    EXPECT_TRUE(mem.open(100, "f").is_ok());
    EXPECT_TRUE(mem.write(100, 0, std::vector<std::byte>(kRegion)).is_ok());
    EXPECT_TRUE(mem.close(100).is_ok());
    ServerConfig cfg;
    cfg.exec = exec;
    cfg.workers = workers;
    auto b = std::make_unique<ScriptedBackend>(mem, mode);
    backend = b.get();
    server = std::make_unique<IonServer>(std::move(b), cfg);
    auto [s, c] = InProcTransport::make_pair();
    server->serve(std::move(s));
    ClientConfig ccfg;
    ccfg.window = window;
    client = std::make_unique<Client>(std::move(c), ccfg);
  }
  ~Rig() {
    backend->release();  // never leave a worker parked
    client.reset();
    server->stop();
  }

  // Ops the worker pool executed (one queue-wait sample per task).
  std::uint64_t worker_ops() const {
    const obs::Snapshot s = server->metrics();
    const obs::HistogramSnapshot* h = s.histogram("server.sched.queue_wait_us");
    return h != nullptr ? h->count : 0;
  }
  std::int64_t queue_batches() const { return gauge(server->metrics(), "server.queue_batches"); }
};

class FastPath : public ::testing::TestWithParam<ExecModel> {};

TEST_P(FastPath, RewritesInsideASizedRegionSkipTheQueue) {
  Rig rig(GetParam(), ScriptedBackend::Try::forward);
  ASSERT_TRUE(rig.client->open(1, "f").is_ok());
  std::vector<std::byte> expect(kRegion);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t off = (i * 5 % 16) * 4_KiB;
    const auto data = pattern(4_KiB, i);
    ASSERT_TRUE(rig.client->write(1, off, data).is_ok());
    std::copy(data.begin(), data.end(), expect.begin() + static_cast<std::ptrdiff_t>(off));
  }
  ASSERT_TRUE(rig.client->fsync(1).is_ok());
  EXPECT_EQ(rig.queue_batches(), 0) << "every rewrite finished on the lane";
  EXPECT_EQ(rig.worker_ops(), 0u);
  EXPECT_EQ(rig.mem.snapshot("f"), expect);
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

TEST_P(FastPath, GrowingWritesStillQueue) {
  Rig rig(GetParam(), ScriptedBackend::Try::forward);
  ASSERT_TRUE(rig.client->open(1, "g").is_ok());
  const auto data = pattern(4_KiB, 1);
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(rig.client->write(1, i * data.size(), data).is_ok());
  }
  ASSERT_TRUE(rig.client->fsync(1).is_ok());
  EXPECT_EQ(rig.worker_ops(), 16u) << "an append grows the file, so it declines";
  EXPECT_GT(rig.queue_batches(), 0);
  EXPECT_EQ(rig.mem.snapshot("g").size(), 16 * data.size());
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

TEST_P(FastPath, ReadsReturnTheLastWrittenBytes) {
  Rig rig(GetParam(), ScriptedBackend::Try::forward);
  ASSERT_TRUE(rig.client->open(1, "f").is_ok());
  for (std::uint64_t round = 0; round < 8; ++round) {
    const auto a = pattern(8_KiB, 2 * round);
    const auto b = pattern(8_KiB, 2 * round + 1);
    ASSERT_TRUE(rig.client->write(1, 8_KiB, a).is_ok());
    ASSERT_TRUE(rig.client->write(1, 8_KiB, b).is_ok());
    auto r = rig.client->read(1, 8_KiB, b.size());
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), b) << "round " << round;
  }
  EXPECT_EQ(rig.worker_ops(), 0u) << "reads of a quiet descriptor finish on the lane too";
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

TEST_P(FastPath, DefaultBackendQueuesEveryOp) {
  Rig rig(GetParam(), ScriptedBackend::Try::decline);
  ASSERT_TRUE(rig.client->open(1, "f").is_ok());
  const auto data = pattern(4_KiB, 3);
  for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(rig.client->write(1, 0, data).is_ok());
  auto r = rig.client->read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_EQ(rig.worker_ops(), 9u) << "8 writes and 1 read, all through the worker pool";
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Staging, FastPath,
                         ::testing::Values(ExecModel::work_queue, ExecModel::work_queue_async),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

// A failed inline write surfaces exactly like a failed worker write: the
// staged ack goes out, and the error bounces the next op on the descriptor,
// once.
TEST(FastPathErrors, FailedTryWriteIsOneDeferredError) {
  Rig rig(ExecModel::work_queue_async, ScriptedBackend::Try::fail);
  ASSERT_TRUE(rig.client->open(1, "f").is_ok());
  const auto data = pattern(4_KiB, 4);
  ASSERT_TRUE(rig.client->write(1, 0, data).is_ok()) << "acked as staged";
  EXPECT_TRUE(rig.client->last_write_was_staged());
  EXPECT_EQ(rig.client->fsync(1).code(), Errc::io_error) << "surfaces on the next op";
  EXPECT_TRUE(rig.client->fsync(1).is_ok()) << "and is consumed";
  EXPECT_EQ(counter(rig.server->metrics(), "server.deferred_errors"), 1u);
  EXPECT_EQ(rig.worker_ops(), 0u);
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

TEST(FastPathErrors, FailedTryWriteBouncesASyncWriteDirectly) {
  Rig rig(ExecModel::work_queue, ScriptedBackend::Try::fail);
  ASSERT_TRUE(rig.client->open(1, "f").is_ok());
  EXPECT_EQ(rig.client->write(1, 0, pattern(4_KiB, 5)).code(), Errc::io_error);
  EXPECT_TRUE(rig.client->fsync(1).is_ok());
  EXPECT_EQ(counter(rig.server->metrics(), "server.deferred_errors"), 0u);
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

// The ordering rule: while a write of a descriptor is in flight on a worker,
// a later write of that descriptor must queue behind it rather than finish
// on the lane first. One worker keeps the queue FIFO, so the last write
// acknowledged is the one that lands last.
TEST(FastPathOrdering, LaterWriteWaitsForAnInFlightWriteOfTheSameFd) {
  Rig rig(ExecModel::work_queue_async, ScriptedBackend::Try::forward, /*workers=*/1,
          /*window=*/4);
  ASSERT_TRUE(rig.client->open(1, "f").is_ok());
  const std::vector<std::byte> a(4_KiB, std::byte{'A'});
  const std::vector<std::byte> b(4_KiB, std::byte{'B'});
  rig.backend->decline_next_try();  // A goes to the worker...
  rig.backend->hold_first_write();  // ...and parks there
  auto ta = rig.client->submit_write(1, 0, a);
  rig.backend->wait_held();
  auto tb = rig.client->submit_write(1, 0, b);
  EXPECT_TRUE(rig.client->wait(ta).is_ok());
  EXPECT_TRUE(rig.client->wait(tb).is_ok());  // B's staged ack: B was admitted
  rig.backend->release();
  ASSERT_TRUE(rig.client->fsync(1).is_ok());
  EXPECT_EQ(rig.worker_ops(), 2u) << "B queued behind A instead of running inline";
  EXPECT_EQ(rig.mem.snapshot("f")[0], std::byte{'B'});
  EXPECT_TRUE(rig.client->close(1).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
