// Send-side backpressure (DESIGN.md §15): the asynchronous reply path must
//
//   * park replies in the per-connection send queue when the peer's ring is
//     full, resume on the EPOLLOUT edge, and deliver every byte intact;
//   * bound queued reply memory at ServerConfig::send_queue_bytes and drop
//     only the stalled connection when a peer stops reading — releasing the
//     BML leases its queued replies were pinning;
//   * refuse a stream with no readiness fd — the server has no blocking
//     path to serve it on — without disturbing its neighbors;
//   * account the one remaining reply memcpy (fstat's 8-byte size) so the
//     bench's zero-copy gate has a counter to watch.
//
// The tests speak the wire protocol directly over raw in-proc pipes so they
// can pipeline requests without reaping replies — Client's roundtrip API
// would drain each reply immediately and never stress the queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/units.hpp"
#include "rt/server.hpp"
#include "rt/transport.hpp"
#include "rt/wire.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::counter;
using testsupport::gauge;

constexpr std::size_t kPipe = 4_KiB;  // tiny ring: replies overflow fast

// Raw protocol driver over one stream end.
struct Raw {
  std::unique_ptr<ByteStream> s;
  std::uint64_t next_seq = 1;

  // Fire one request frame without waiting for the reply.
  [[nodiscard]] bool send(FrameHeader req, std::span<const std::byte> payload = {}) {
    req.type = MsgType::request;
    req.seq = next_seq++;
    req.version = kProtoVersion;
    if (!payload.empty()) {
      req.payload_len = payload.size();
      req.stamp_payload_crc(payload);
    }
    std::byte buf[FrameHeader::kWireSize];
    req.encode(std::span<std::byte, FrameHeader::kWireSize>(buf));
    if (!s->write_all(buf, sizeof buf).is_ok()) return false;
    return payload.empty() || s->write_all(payload.data(), payload.size()).is_ok();
  }

  // Blocking-read the next reply header (+payload when one is announced).
  [[nodiscard]] bool recv(FrameHeader* hdr_out, std::vector<std::byte>* payload_out) {
    std::byte buf[FrameHeader::kWireSize];
    if (!s->read_exact(buf, sizeof buf).is_ok()) return false;
    auto hdr = FrameHeader::decode(std::span<const std::byte, FrameHeader::kWireSize>(buf));
    if (!hdr.is_ok() || hdr.value().type != MsgType::reply) return false;
    if (hdr_out != nullptr) *hdr_out = hdr.value();
    if (hdr.value().payload_len > 0) {
      if (payload_out == nullptr) return false;
      payload_out->resize(hdr.value().payload_len);
      if (!s->read_exact(payload_out->data(), payload_out->size()).is_ok()) return false;
      if (!hdr.value().payload_crc_ok(*payload_out)) return false;
    }
    return true;
  }

  // Request/reply with an ok-status check: the setup ops.
  [[nodiscard]] bool roundtrip(FrameHeader req, std::span<const std::byte> payload = {},
                               FrameHeader* hdr_out = nullptr,
                               std::vector<std::byte>* payload_out = nullptr) {
    if (!send(req, payload)) return false;
    FrameHeader hdr;
    if (!recv(&hdr, payload_out)) return false;
    if (hdr_out != nullptr) *hdr_out = hdr;
    return hdr.status == 0;
  }

  [[nodiscard]] bool handshake(int fd, const std::string& path) {
    FrameHeader hello;
    hello.op = OpCode::hello;
    if (!roundtrip(hello)) return false;
    FrameHeader open;
    open.op = OpCode::open;
    open.fd = fd;
    return roundtrip(open, std::as_bytes(std::span(path.data(), path.size())));
  }
};

Raw dial(IonServer& server, std::size_t pipe_bytes = kPipe) {
  auto [s, c] = InProcTransport::make_pair(pipe_bytes);
  server.serve(std::move(s));
  return Raw{std::move(c)};
}

// Poll `pred` for up to 5 s — the counters are updated by lane/worker
// threads, so assertions on them need a grace window.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SendPath, SlowReaderParksRepliesThenDeliversAll) {
  ServerConfig cfg;
  cfg.exec = ExecModel::work_queue_async;
  IonServer server(std::make_unique<MemBackend>(), cfg);
  Raw conn = dial(server);
  ASSERT_TRUE(conn.handshake(1, "f"));

  const auto data = testsupport::pattern(16_KiB, 0x5e9d);
  FrameHeader wr;
  wr.op = OpCode::write;
  wr.fd = 1;
  ASSERT_TRUE(conn.roundtrip(wr, data));

  // Pipeline 16 reads without reaping: ~262 KiB of replies against a 4 KiB
  // ring. The requests themselves (16 x 56 B) fit the send ring, so this
  // never deadlocks; the *replies* must park in the send queue.
  constexpr int kReads = 16;
  for (int i = 0; i < kReads; ++i) {
    FrameHeader rd;
    rd.op = OpCode::read;
    rd.fd = 1;
    rd.payload_len = 16_KiB;  // requested length; no payload sent
    ASSERT_TRUE(conn.send(rd));
  }

  // The queue actually filled: replies were accepted faster than the stalled
  // reader drained them.
  ASSERT_TRUE(eventually([&] {
    const obs::Snapshot st = server.metrics();
    return counter(st, "server.reply.enqueued") > counter(st, "server.reply.sent");
  })) << "replies never parked in the send queue";

  // Now read everything: each drained ring fires the write-readiness edge
  // and the lane resumes the gather. Every reply must arrive whole, in
  // order, checksummed, and correct.
  for (int i = 0; i < kReads; ++i) {
    FrameHeader hdr;
    std::vector<std::byte> payload;
    ASSERT_TRUE(conn.recv(&hdr, &payload)) << "reply " << i << " lost";
    EXPECT_EQ(hdr.status, 0) << "reply " << i;
    EXPECT_EQ(payload, data) << "reply " << i << " corrupted";
  }

  ASSERT_TRUE(eventually([&] {
    const obs::Snapshot st = server.metrics();
    return counter(st, "server.reply.sent") == counter(st, "server.reply.enqueued");
  }));
  const obs::Snapshot st = server.metrics();
  EXPECT_EQ(counter(st, "server.reply.queue_full"), 0u);
  EXPECT_EQ(counter(st, "server.reply.peer_gone"), 0u);

  server.stop();
  EXPECT_EQ(gauge(server.metrics(), "server.bml_in_use"), 0) << "a parked reply leaked its lease";
}

TEST(SendPath, QueueFullDropsOnlyTheStalledConnection) {
  ServerConfig cfg;
  cfg.exec = ExecModel::work_queue_async;
  cfg.send_queue_bytes = 64_KiB;  // ~4 parked 16 KiB replies
  IonServer server(std::make_unique<MemBackend>(), cfg);

  Raw stalled = dial(server);
  ASSERT_TRUE(stalled.handshake(1, "stalled"));
  Raw healthy = dial(server);
  ASSERT_TRUE(healthy.handshake(2, "healthy"));

  const auto data = testsupport::pattern(16_KiB, 0xdead);
  FrameHeader wr;
  wr.op = OpCode::write;
  wr.fd = 1;
  ASSERT_TRUE(stalled.roundtrip(wr, data));

  // Demand far more reply bytes than ring + queue can hold, and never read.
  // A send may fail mid-blast: that is the drop itself landing before the
  // blast finishes (the server closed the stream under us).
  for (int i = 0; i < 12; ++i) {
    FrameHeader rd;
    rd.op = OpCode::read;
    rd.fd = 1;
    rd.payload_len = 16_KiB;
    if (!stalled.send(rd)) break;
  }
  ASSERT_TRUE(eventually([&] {
    return counter(server.metrics(), "server.reply.queue_full") >= 1;
  })) << "the send-queue bound never tripped";

  // The stalled connection was dropped: its stream reads EOF once the
  // already-ringed bytes are drained.
  std::byte sink[1_KiB];
  Status st = Status::ok();
  while (st.is_ok()) st = stalled.s->read_exact(sink, sizeof sink);
  EXPECT_EQ(st.code(), Errc::shutdown);

  // The neighbor is untouched: full write/read service, correct bytes.
  FrameHeader wr2;
  wr2.op = OpCode::write;
  wr2.fd = 2;
  EXPECT_TRUE(healthy.roundtrip(wr2, data));
  FrameHeader rd2;
  rd2.op = OpCode::read;
  rd2.fd = 2;
  rd2.payload_len = 16_KiB;
  std::vector<std::byte> back;
  EXPECT_TRUE(healthy.roundtrip(rd2, {}, nullptr, &back));
  EXPECT_EQ(back, data);

  server.stop();
  const obs::Snapshot final_st = server.metrics();
  EXPECT_EQ(gauge(final_st, "server.bml_in_use"), 0)
      << "aborting the queue must release pinned leases";
  EXPECT_GE(counter(final_st, "server.reply.peer_gone"), 1u)
      << "queued replies behind the drop were not accounted";
}

// A stream that hides its readiness fds: no lane can poll it.
class OpaqueStream final : public ByteStream {
 public:
  explicit OpaqueStream(std::unique_ptr<ByteStream> inner) : inner_(std::move(inner)) {}
  Status read_exact(void* buf, std::size_t n) override { return inner_->read_exact(buf, n); }
  Status write_all(const void* buf, std::size_t n) override { return inner_->write_all(buf, n); }
  void close() override { inner_->close(); }
  [[nodiscard]] int read_readiness_fd() override { return -1; }
  Result<std::size_t> read_some(void* buf, std::size_t n) override {
    return inner_->read_some(buf, n);
  }
  [[nodiscard]] int write_readiness_fd() override { return -1; }
  Result<std::size_t> write_some(const void* buf, std::size_t n) override {
    return inner_->write_some(buf, n);
  }

 private:
  std::unique_ptr<ByteStream> inner_;
};

TEST(SendPath, NonPollableStreamIsRefused) {
  ServerConfig cfg;
  cfg.exec = ExecModel::work_queue_async;
  IonServer server(std::make_unique<MemBackend>(), cfg);

  auto [s, c] = InProcTransport::make_pair(64_KiB);
  server.serve(std::make_unique<OpaqueStream>(std::move(s)));
  // The server closed its end: the peer's blocking read sees shutdown.
  std::byte buf[FrameHeader::kWireSize];
  EXPECT_EQ(c->read_exact(buf, sizeof buf).code(), Errc::shutdown);
  EXPECT_EQ(server.metrics().counter("server.rt.refused"), 1u);

  // A pollable connection served next to it works normally.
  Raw conn = dial(server, 64_KiB);
  ASSERT_TRUE(conn.handshake(1, "f"));
  const auto data = testsupport::pattern(8_KiB, 0xfa11);
  FrameHeader wr;
  wr.op = OpCode::write;
  wr.fd = 1;
  ASSERT_TRUE(conn.roundtrip(wr, data));
  FrameHeader rd;
  rd.op = OpCode::read;
  rd.fd = 1;
  rd.payload_len = 8_KiB;
  std::vector<std::byte> back;
  ASSERT_TRUE(conn.roundtrip(rd, {}, nullptr, &back));
  EXPECT_EQ(back, data);
  EXPECT_EQ(server.metrics().counter("server.rt.refused"), 1u);
  server.stop();
}

TEST(SendPath, FstatIsTheOnlyReplyCopy) {
  ServerConfig cfg;
  cfg.exec = ExecModel::work_queue_async;
  IonServer server(std::make_unique<MemBackend>(), cfg);
  Raw conn = dial(server, 64_KiB);
  ASSERT_TRUE(conn.handshake(1, "f"));

  const auto data = testsupport::pattern(16_KiB, 0xc0);
  FrameHeader wr;
  wr.op = OpCode::write;
  wr.fd = 1;
  ASSERT_TRUE(conn.roundtrip(wr, data));

  // A full read travels zero-copy: the counter must not move.
  FrameHeader rd;
  rd.op = OpCode::read;
  rd.fd = 1;
  rd.payload_len = 16_KiB;
  std::vector<std::byte> back;
  ASSERT_TRUE(conn.roundtrip(rd, {}, nullptr, &back));
  EXPECT_EQ(back, data);
  EXPECT_EQ(counter(server.metrics(), "server.reply.payload_copy_bytes"), 0u);

  // fstat's 8-byte size payload lives on the worker's stack, so it is the
  // one reply that must be copied into the queue entry — and counted.
  FrameHeader fs;
  fs.op = OpCode::fstat;
  fs.fd = 1;
  FrameHeader hdr;
  std::vector<std::byte> size_payload;
  ASSERT_TRUE(conn.roundtrip(fs, {}, &hdr, &size_payload));
  ASSERT_EQ(size_payload.size(), 8u);
  std::uint64_t size = 0;
  std::memcpy(&size, size_payload.data(), 8);
  EXPECT_EQ(size, 16_KiB);
  EXPECT_EQ(counter(server.metrics(), "server.reply.payload_copy_bytes"), 8u);
  server.stop();
}

// Whole-stack sanity under send-side pressure: many Client threads doing
// mixed ops over deliberately tiny rings, so read replies routinely overflow
// into the send queues while neighbors keep writing.
TEST(SendPath, ClusterSurvivesTinyPipesUnderConcurrency) {
  testsupport::ClusterOptions o;
  o.server.exec = ExecModel::work_queue_async;
  o.server.workers = 4;
  o.pipe_bytes = 8_KiB;
  o.clients = 8;
  testsupport::TestCluster tc(o);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < 8; ++id) {
    threads.emplace_back([&, id] {
      auto& client = tc.client(static_cast<std::size_t>(id));
      const int fd = 10 + id;
      std::vector<std::byte> file;
      if (!client.open(fd, std::string("t").append(std::to_string(id))).is_ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 40; ++i) {
        const auto data = testsupport::pattern(6_KiB, static_cast<std::uint64_t>(id) * 100 +
                                                          static_cast<std::uint64_t>(i));
        if (!client.write(fd, file.size(), data).is_ok()) {
          ++failures;
          return;
        }
        file.insert(file.end(), data.begin(), data.end());
        // Read back a slice bigger than the ring: the reply must stream
        // through a parked queue.
        const std::uint64_t off = (file.size() > 12_KiB) ? file.size() - 12_KiB : 0;
        auto r = client.read(fd, off, file.size() - off);
        if (!r.is_ok() || !std::equal(r.value().begin(), r.value().end(),
                                      file.begin() + static_cast<std::ptrdiff_t>(off))) {
          ++failures;
          return;
        }
      }
      if (!client.fsync(fd).is_ok() || !client.close(fd).is_ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Counters only after stop() has joined the lanes: a client can consume
  // its last reply a beat before the lane bumps replies_sent.
  tc.stop();
  const obs::Snapshot st = tc.server().metrics();
  EXPECT_EQ(counter(st, "server.reply.queue_full"), 0u)
      << "a live reader must never trip the queue bound";
  EXPECT_EQ(counter(st, "server.reply.sent"), counter(st, "server.reply.enqueued"));
  EXPECT_EQ(gauge(st, "server.bml_in_use"), 0);
}

}  // namespace
}  // namespace iofwd::rt
