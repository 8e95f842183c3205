// Client reconnect with idempotent replay: a connection cut mid-burst is
// redialed through the StreamFactory, descriptors are re-opened, and the
// failed op replays transparently — alone, or with every unacked request of
// a pipelined window.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::fault {
namespace {

using testsupport::counter;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TestCluster cluster() {
  ClusterOptions o;
  o.clients = 0;
  return TestCluster(o);
}

// A reconnectable client whose first connection dies after `cut_after`
// written bytes; redials come up clean.
std::size_t add_cut_client(TestCluster& tc, std::uint64_t cut_after) {
  TestCluster::ClientSpec spec;
  spec.cut_after_write_bytes = cut_after;
  spec.reconnectable = true;
  return tc.add_client(std::move(spec));
}

TEST(Reconnect, MidBurstCutReplaysTransparently) {
  TestCluster tc = cluster();
  // First connection dies once this end has written ~1.5 frames of a
  // 16 KiB-per-write burst; the cut lands mid-payload.
  auto& client =
      tc.client(add_cut_client(tc, rt::FrameHeader::kWireSize * 2 + 16_KiB + 8_KiB));
  ASSERT_TRUE(client.open(1, "burst").is_ok());

  const auto data = pattern(16_KiB, 11);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.write(1, static_cast<std::uint64_t>(i) * data.size(), data).is_ok())
        << "write " << i << " did not survive the cut";
  }
  ASSERT_TRUE(client.fsync(1).is_ok());
  ASSERT_TRUE(client.close(1).is_ok());

  // Every byte of every burst landed, including the cut-then-replayed one.
  const auto all = tc.snapshot("burst");
  ASSERT_EQ(all.size(), 8 * data.size());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(i * data.size())))
        << "burst " << i << " corrupted";
  }
  const obs::Snapshot cs = client.metrics();
  EXPECT_GE(counter(cs, "client.reconnects"), 1u);
  EXPECT_GE(counter(cs, "client.replays"), 1u);
  EXPECT_EQ(counter(cs, "client.giveups"), 0u);
}

TEST(Reconnect, ReplayedReadAfterReconnectSeesEarlierWrites) {
  TestCluster tc = cluster();
  // Budget: hello + open + first write survive; the read request later hits
  // the cut (hello 56 B, open 56+2 B, write 56 B + 4 KiB, then 10 B of the
  // read header).
  auto& client =
      tc.client(add_cut_client(tc, rt::FrameHeader::kWireSize * 3 + 4_KiB + 12));

  ASSERT_TRUE(client.open(3, "rr").is_ok());
  const auto data = pattern(4_KiB, 12);
  ASSERT_TRUE(client.write(3, 0, data).is_ok());
  auto r = client.read(3, 0, data.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), data);
  EXPECT_GE(counter(client.metrics(), "client.reconnects"), 1u);
}

TEST(Reconnect, WithoutFactoryTheCutSurfaces) {
  TestCluster tc = cluster();
  // hello + open (1-byte path) fit; the write's header hits the cut.
  TestCluster::ClientSpec spec;
  spec.cut_after_write_bytes = rt::FrameHeader::kWireSize * 2 + 10;
  auto& client = tc.client(tc.add_client(std::move(spec)));  // no StreamFactory
  ASSERT_TRUE(client.open(1, "x").is_ok());
  EXPECT_FALSE(client.write(1, 0, pattern(4_KiB, 13)).is_ok());
}

TEST(Reconnect, BoundedAttemptsThenGiveup) {
  // The factory always dials a connection that dies immediately, so every
  // replay fails; the client must stop after its attempt budget. The dead
  // factory is hand-built — TestCluster factories always reach the server.
  TestCluster tc = cluster();
  int dials = 0;
  rt::StreamFactory dead_factory = [&]() -> Result<std::unique_ptr<rt::ByteStream>> {
    ++dials;
    auto [s, c] = rt::InProcTransport::make_pair();
    s->close();  // server side never serves: instant dead line
    return std::unique_ptr<rt::ByteStream>(std::move(c));
  };
  auto first = tc.factory()();
  ASSERT_TRUE(first.is_ok());
  // hello + open fit; the write's header hits the cut.
  auto cut = std::make_unique<FaultyStream>(std::move(first).value(),
                                            rt::FrameHeader::kWireSize * 2 + 5);

  rt::ClientConfig cfg;
  cfg.reconnect_attempts = 2;
  cfg.reconnect_backoff_ms = 1;  // keep the test fast
  rt::Client client(std::move(cut), cfg, std::move(dead_factory));

  ASSERT_TRUE(client.open(1, "x").is_ok());
  Status st = client.write(1, 0, pattern(4_KiB, 14));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(dials, 2) << "exactly reconnect_attempts dials";
  const obs::Snapshot cs = client.metrics();
  EXPECT_EQ(counter(cs, "client.giveups"), 1u);
  EXPECT_EQ(counter(cs, "client.replays"), 0u);
}

TEST(Reconnect, ShutdownOpcodeNeverReconnects) {
  TestCluster tc = cluster();
  int dials = 0;
  rt::StreamFactory counting = [&]() -> Result<std::unique_ptr<rt::ByteStream>> {
    ++dials;
    return tc.factory()();
  };
  auto first = tc.factory()();
  ASSERT_TRUE(first.is_ok());
  auto cut = std::make_unique<FaultyStream>(std::move(first).value(), 1);  // dies on first frame
  rt::Client client(std::move(cut), {}, std::move(counting));
  EXPECT_FALSE(client.shutdown().is_ok());
  EXPECT_EQ(dials, 0) << "a failed polite shutdown must not redial";
}

// Seeded 4 KiB payloads, one per write of a window.
std::vector<std::vector<std::byte>> window_payloads(int n, std::uint64_t seed) {
  std::vector<std::vector<std::byte>> v;
  for (int i = 0; i < n; ++i) v.push_back(pattern(4_KiB, seed + static_cast<std::uint64_t>(i)));
  return v;
}

// Waits every ticket, then checks that write i landed exactly at offset
// i * 4 KiB — on the server and in a read-back through the client.
void expect_window_landed(TestCluster& tc, rt::Client& client,
                          const std::vector<rt::Client::Ticket>& tickets,
                          const std::vector<std::vector<std::byte>>& data,
                          const std::string& path) {
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(client.wait(tickets[i]).is_ok()) << "write " << i;
  }
  ASSERT_TRUE(client.fsync(1).is_ok());
  std::vector<std::byte> want;
  for (const auto& d : data) want.insert(want.end(), d.begin(), d.end());
  EXPECT_EQ(tc.snapshot(path), want);
  auto r = client.read(1, 0, want.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), want);
}

TEST(Reconnect, CutInsideWindowReplaysUnackedWrites) {
  // A 32-deep window of 4 KiB writes whose connection dies mid-payload of
  // the 11th write, while none of the window's replies has been read: the
  // redial must resend every unacked write in order.
  TestCluster tc = cluster();
  auto first = tc.factory()();
  ASSERT_TRUE(first.is_ok());
  constexpr std::uint64_t H = rt::FrameHeader::kWireSize;
  // hello (H) + open "w" (H + 1) + 10 whole writes + half of the 11th.
  auto cut = std::make_unique<FaultyStream>(std::move(first).value(),
                                            2 * H + 1 + 10 * (H + 4_KiB) + H + 2_KiB);
  rt::ClientConfig cfg;
  cfg.window = 32;
  cfg.reconnect_backoff_ms = 1;
  rt::Client client(std::move(cut), cfg, tc.factory());
  ASSERT_TRUE(client.open(1, "w").is_ok());

  const auto data = window_payloads(32, 300);
  std::vector<rt::Client::Ticket> tickets;
  for (std::size_t i = 0; i < data.size(); ++i) {
    tickets.push_back(client.submit_write(1, i * 4_KiB, data[i]));
  }
  expect_window_landed(tc, client, tickets, data, "w");
  const obs::Snapshot cs = client.metrics();
  EXPECT_EQ(counter(cs, "client.reconnects"), 1u);
  EXPECT_GE(counter(cs, "client.replays"), 1u);
  EXPECT_EQ(counter(cs, "client.giveups"), 0u);
}

TEST(Reconnect, BouncedPayloadInsideWindowIsReplayed) {
  // v1 window: one write's payload gets a bit flipped on the wire. The
  // server bounces that write with checksum_error without executing it;
  // the client counts the bounce, redials and resends the unacked tail.
  TestCluster tc = cluster();
  auto plan = std::make_shared<FaultPlan>();
  // stream writes: hello header (1), open header + path (2, 3), then a
  // header and a payload per write — call 13 is the 5th write's payload.
  plan->add({.op = OpKind::stream_write, .action = FaultAction::bit_flip, .nth = 13});
  auto first = tc.factory()();
  ASSERT_TRUE(first.is_ok());
  rt::ClientConfig cfg;
  cfg.window = 32;
  cfg.reconnect_backoff_ms = 1;
  rt::Client client(std::make_unique<FaultyStream>(std::move(first).value(), plan), cfg,
                    tc.factory());
  ASSERT_TRUE(client.open(1, "b").is_ok());
  ASSERT_EQ(client.negotiated_version(), rt::kProtoVersion);

  const auto data = window_payloads(16, 400);
  std::vector<rt::Client::Ticket> tickets;
  for (std::size_t i = 0; i < data.size(); ++i) {
    tickets.push_back(client.submit_write(1, i * 4_KiB, data[i]));
  }
  expect_window_landed(tc, client, tickets, data, "b");
  EXPECT_EQ(counter(tc.server().metrics(), "server.integrity.payload_crc_errors"), 1u);
  const obs::Snapshot cs = client.metrics();
  EXPECT_EQ(counter(cs, "client.integrity.request_bounces"), 1u);
  EXPECT_GE(counter(cs, "client.replays"), 1u);
  EXPECT_EQ(counter(cs, "client.giveups"), 0u);
}

}  // namespace
}  // namespace iofwd::fault
