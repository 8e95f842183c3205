// The windowed Client: submit/wait tickets over one connection, replies read
// inline by the waiting thread and parked for other tickets, and the
// window-1 default issuing exactly the request/reply stream calls.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::pattern;

struct Harness {
  MemBackend* mem = nullptr;
  std::shared_ptr<fault::FaultPlan> plan = std::make_shared<fault::FaultPlan>();
  std::unique_ptr<IonServer> server;
  std::unique_ptr<Client> client;

  explicit Harness(ExecModel exec, int window = 16) {
    ServerConfig cfg;
    cfg.exec = exec;
    auto inner = std::make_unique<MemBackend>();
    mem = inner.get();
    auto backend = std::make_unique<fault::FaultyBackend>(std::move(inner), plan);
    server = std::make_unique<IonServer>(std::move(backend), cfg);
    auto [a, b] = InProcTransport::make_pair();
    server->serve(std::move(a));
    ClientConfig ccfg;
    ccfg.window = window;
    client = std::make_unique<Client>(std::move(b), ccfg);
  }
};

class ClientWindowModels : public ::testing::TestWithParam<ExecModel> {};

TEST_P(ClientWindowModels, PipelinedWritesAllLand) {
  Harness h(GetParam());
  ASSERT_TRUE(h.client->open(1, "p").is_ok());
  const auto data = pattern(64_KiB, 1);
  std::vector<Client::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(h.client->submit_write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  for (auto t : tickets) EXPECT_TRUE(h.client->wait(t).is_ok());
  ASSERT_TRUE(h.client->fsync(1).is_ok());
  EXPECT_EQ(h.mem->snapshot("p").size(), 64 * data.size());
  EXPECT_TRUE(h.client->close(1).is_ok());
}

TEST_P(ClientWindowModels, InterleavedReadsAndWritesMatch) {
  Harness h(GetParam());
  ASSERT_TRUE(h.client->open(1, "rw").is_ok());
  const auto a = pattern(32_KiB, 2);
  const auto b = pattern(32_KiB, 3);
  auto w1 = h.client->submit_write(1, 0, a);
  auto w2 = h.client->submit_write(1, a.size(), b);
  ASSERT_TRUE(h.client->wait(w1).is_ok());
  ASSERT_TRUE(h.client->wait(w2).is_ok());
  ASSERT_TRUE(h.client->fsync(1).is_ok());
  auto r1 = h.client->submit_read(1, 0, a.size());
  auto r2 = h.client->submit_read(1, a.size(), b.size());
  // Waited out of order: r1's reply is parked while r2 is collected.
  auto v2 = h.client->wait(r2);
  auto v1 = h.client->wait(r1);
  ASSERT_TRUE(v1.is_ok());
  ASSERT_TRUE(v2.is_ok());
  EXPECT_EQ(v1.value(), a);
  EXPECT_EQ(v2.value(), b);
}

TEST_P(ClientWindowModels, WindowLimitsOutstanding) {
  Harness h(GetParam(), /*window=*/4);
  ASSERT_TRUE(h.client->open(1, "w").is_ok());
  const auto data = pattern(16_KiB, 4);
  std::vector<Client::Ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(h.client->submit_write(1, static_cast<std::uint64_t>(i) * data.size(), data));
    EXPECT_LE(h.client->outstanding(), 4u);
  }
  for (auto t : tickets) EXPECT_TRUE(h.client->wait(t).is_ok());
  EXPECT_EQ(h.client->outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, ClientWindowModels,
                         ::testing::Values(ExecModel::thread_per_client, ExecModel::work_queue,
                                           ExecModel::work_queue_async),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

TEST(ClientWindow, DeferredErrorSurfacesOnFsyncTicket) {
  Harness h(ExecModel::work_queue_async);
  ASSERT_TRUE(h.client->open(1, "e").is_ok());
  h.plan->fail_always(fault::OpKind::write, Errc::io_error);
  const auto data = pattern(4096, 5);
  EXPECT_TRUE(h.client->wait(h.client->submit_write(1, 0, data)).is_ok()) << "staged ack";
  EXPECT_EQ(h.client->wait(h.client->submit_fsync(1)).code(), Errc::io_error);
}

TEST(ClientWindow, ShutdownFailsPendingTickets) {
  // A server that never answers: requests pile up, and the connection
  // shutting down must fail every one of them instead of hanging the
  // waiter. A v0 client sends no hello, so the submits never block.
  auto [a, b] = InProcTransport::make_pair();
  ClientConfig cfg;
  cfg.window = 8;
  cfg.max_wire_version = 0;
  Client client(std::move(b), cfg);
  const auto data = pattern(128, 6);
  auto t1 = client.submit_open(1, "never");
  auto t2 = client.submit_write(1, 0, data);
  auto t3 = client.submit_fsync(1);
  EXPECT_EQ(client.outstanding(), 3u);
  a->close();
  EXPECT_EQ(client.wait(t2).code(), Errc::shutdown);
  EXPECT_EQ(client.wait(t1).code(), Errc::shutdown);
  EXPECT_EQ(client.wait(t3).code(), Errc::shutdown);
  EXPECT_EQ(client.outstanding(), 0u);
}

TEST(ClientWindow, ServerStopFailsInFlight) {
  auto h = std::make_unique<Harness>(ExecModel::work_queue_async);
  ASSERT_TRUE(h->client->open(1, "s").is_ok());
  h->server->stop();
  const auto data = pattern(4096, 6);
  auto t = h->client->submit_write(1, 0, data);
  EXPECT_FALSE(h->client->wait(t).is_ok());
}

TEST(ClientWindow, SubmitAfterShutdownFailsFast) {
  Harness h(ExecModel::work_queue);
  ASSERT_TRUE(h.client->shutdown().is_ok());
  const auto data = pattern(128, 7);
  EXPECT_EQ(h.client->wait(h.client->submit_write(1, 0, data)).code(), Errc::shutdown);
  EXPECT_EQ(h.client->wait(h.client->submit_read(1, 0, 128)).code(), Errc::shutdown);
}

TEST(ClientWindow, HighConcurrencyStress) {
  Harness h(ExecModel::work_queue_async, /*window=*/32);
  ASSERT_TRUE(h.client->open(1, "stress").is_ok());
  const auto data = pattern(8_KiB, 8);
  std::vector<Client::Ticket> tickets;
  for (int i = 0; i < 500; ++i) {
    tickets.push_back(h.client->submit_write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  int failures = 0;
  for (auto t : tickets) failures += h.client->wait(t).is_ok() ? 0 : 1;
  EXPECT_EQ(failures, 0);
  ASSERT_TRUE(h.client->fsync(1).is_ok());
  EXPECT_EQ(h.mem->snapshot("stress").size(), 500 * data.size());
}

TEST(ClientWindow, WaitingTwiceIsInvalid) {
  Harness h(ExecModel::work_queue_async);
  auto t = h.client->submit_open(1, "twice");
  EXPECT_TRUE(h.client->wait(t).is_ok());
  EXPECT_EQ(h.client->wait(t).code(), Errc::invalid_argument);
  EXPECT_EQ(h.client->wait(Client::Ticket{}).code(), Errc::invalid_argument);
}

TEST(ClientWindow, SharedClientWritesFromTwoThreads) {
  // One Client shared by two writer threads: each thread's wait may read
  // and park the other's replies, and last_write_was_staged() is read
  // while the other thread's replies are being reaped.
  Harness h(ExecModel::work_queue_async, /*window=*/4);
  ASSERT_TRUE(h.client->open(1, "shared").is_ok());
  constexpr int kWrites = 64;
  const auto data = pattern(4_KiB, 9);
  std::vector<std::thread> writers;
  int failures[2] = {0, 0};
  int staged[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kWrites; ++i) {
        const auto off = static_cast<std::uint64_t>(w * kWrites + i) * data.size();
        failures[w] += h.client->write(1, off, data).is_ok() ? 0 : 1;
        staged[w] += h.client->last_write_was_staged() ? 1 : 0;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures[0] + failures[1], 0);
  EXPECT_GT(staged[0] + staged[1], 0) << "async staging acks carry the staged flag";
  ASSERT_TRUE(h.client->fsync(1).is_ok());
  const auto all = h.mem->snapshot("shared");
  ASSERT_EQ(all.size(), 2 * kWrites * data.size());
  for (int i = 0; i < 2 * kWrites; ++i) {
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(i * data.size())));
  }
}

// Logs every blocking stream call as (is_write, bytes).
class RecordingStream final : public ByteStream {
 public:
  explicit RecordingStream(std::unique_ptr<ByteStream> inner) : inner_(std::move(inner)) {}
  Status read_exact(void* buf, std::size_t n) override {
    calls.emplace_back(false, n);
    return inner_->read_exact(buf, n);
  }
  Status write_all(const void* buf, std::size_t n) override {
    calls.emplace_back(true, n);
    return inner_->write_all(buf, n);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] int read_readiness_fd() override { return inner_->read_readiness_fd(); }
  Result<std::size_t> read_some(void* buf, std::size_t n) override {
    return inner_->read_some(buf, n);
  }
  [[nodiscard]] int write_readiness_fd() override { return inner_->write_readiness_fd(); }
  Result<std::size_t> write_some(const void* buf, std::size_t n) override {
    return inner_->write_some(buf, n);
  }

  std::vector<std::pair<bool, std::size_t>> calls;

 private:
  std::unique_ptr<ByteStream> inner_;
};

TEST(ClientWindow, WindowOneIssuesRequestReplyCalls) {
  // The default window keeps strict request/reply: header write, payload
  // write, header read, payload read — one op at a time.
  IonServer server(std::make_unique<MemBackend>(), ServerConfig{});
  auto [a, b] = InProcTransport::make_pair();
  server.serve(std::move(a));
  auto rec = std::make_unique<RecordingStream>(std::move(b));
  RecordingStream* log = rec.get();
  Client client(std::move(rec));
  const auto data = pattern(4_KiB, 10);
  ASSERT_TRUE(client.open(1, "ab").is_ok());
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);

  constexpr std::size_t H = FrameHeader::kWireSize;
  const std::vector<std::pair<bool, std::size_t>> want = {
      {true, H},  {false, H},                           // hello
      {true, H},  {true, 2},     {false, H},            // open "ab"
      {true, H},  {true, 4096},  {false, H},            // write
      {true, H},  {false, H},    {false, 4096},         // read
  };
  EXPECT_EQ(log->calls, want);
}

}  // namespace
}  // namespace iofwd::rt
