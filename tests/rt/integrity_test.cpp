// Version negotiation and end-to-end checksum plumbing: v1 <-> v1 turns
// payload CRCs on; either side at v0 turns them off and everything still
// interoperates (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"

namespace iofwd::rt {
namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

struct Fx {
  MemBackend* mem = nullptr;
  std::unique_ptr<IonServer> server;
  std::unique_ptr<Client> client;

  explicit Fx(std::uint16_t server_ver = kProtoVersion,
              std::uint16_t client_ver = kProtoVersion) {
    auto m = std::make_unique<MemBackend>();
    mem = m.get();
    ServerConfig scfg;
    scfg.max_wire_version = server_ver;
    server = std::make_unique<IonServer>(std::move(m), scfg);
    auto [s, c] = InProcTransport::make_pair();
    server->serve(std::move(s));
    ClientConfig ccfg;
    ccfg.max_wire_version = client_ver;
    client = std::make_unique<Client>(std::move(c), ccfg);
  }
};

// The full forwarded-op mix must work at any negotiated version.
void run_op_mix(Fx& fx, std::uint64_t seed) {
  const auto data = pattern(8_KiB, seed);
  ASSERT_TRUE(fx.client->open(1, "mix").is_ok());
  ASSERT_TRUE(fx.client->write(1, 0, data).is_ok());
  ASSERT_TRUE(fx.client->write(1, data.size(), data).is_ok());
  auto r = fx.client->read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), data);
  ASSERT_TRUE(fx.client->fsync(1).is_ok());
  auto sz = fx.client->fstat_size(1);
  ASSERT_TRUE(sz.is_ok());
  EXPECT_EQ(sz.value(), 2 * data.size());
  ASSERT_TRUE(fx.client->close(1).is_ok());
  const auto all = fx.mem->snapshot("mix");
  ASSERT_EQ(all.size(), 2 * data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), all.begin()));
}

TEST(Integrity, V1BothSidesNegotiateChecksums) {
  Fx fx;
  EXPECT_EQ(fx.client->negotiated_version(), 0) << "no traffic yet";
  run_op_mix(fx, 21);
  EXPECT_EQ(fx.client->negotiated_version(), kProtoVersion);
  EXPECT_EQ(fx.server->stats().hellos, 1u);
  // Clean run: every counter on both sides stays at zero.
  const auto ss = fx.server->stats();
  EXPECT_EQ(ss.header_crc_errors, 0u);
  EXPECT_EQ(ss.payload_crc_errors, 0u);
  EXPECT_EQ(ss.frames_rejected, 0u);
  const auto cs = fx.client->stats();
  EXPECT_EQ(cs.header_crc_errors, 0u);
  EXPECT_EQ(cs.payload_crc_errors, 0u);
  EXPECT_EQ(cs.request_bounces, 0u);
}

TEST(Integrity, V1ClientInteropsWithV0Server) {
  Fx fx(/*server_ver=*/0, /*client_ver=*/kProtoVersion);
  run_op_mix(fx, 22);
  // The hello happened, but the server clamped the connection to v0:
  // checksums stay off and everything still works.
  EXPECT_EQ(fx.client->negotiated_version(), 0);
  EXPECT_EQ(fx.server->stats().hellos, 1u);
}

TEST(Integrity, V0ClientInteropsWithV1Server) {
  Fx fx(/*server_ver=*/kProtoVersion, /*client_ver=*/0);
  run_op_mix(fx, 23);
  // A v0 client never sends hello; the server leaves the connection at v0.
  EXPECT_EQ(fx.client->negotiated_version(), 0);
  EXPECT_EQ(fx.server->stats().hellos, 0u);
}

TEST(Integrity, FutureClientVersionClampsToServers) {
  // A client from the future (v2) advertises 2; today's server clamps to 1
  // and both sides agree on it.
  Fx fx(/*server_ver=*/kProtoVersion, /*client_ver=*/kProtoVersion + 1);
  run_op_mix(fx, 24);
  EXPECT_EQ(fx.client->negotiated_version(), kProtoVersion);
}

TEST(Integrity, HelloRepeatsPerConnection) {
  // Every reconnect renegotiates: the server counts one hello per dial.
  MemBackend* mem = nullptr;
  auto m = std::make_unique<MemBackend>();
  mem = m.get();
  auto server = std::make_unique<IonServer>(std::move(m), ServerConfig{});
  (void)mem;

  auto [s0, c0] = InProcTransport::make_pair();
  server->serve(std::move(s0));
  StreamFactory factory = [&server]() -> Result<std::unique_ptr<ByteStream>> {
    auto [s, c] = InProcTransport::make_pair();
    server->serve(std::move(s));
    return std::unique_ptr<ByteStream>(std::move(c));
  };
  Client client(std::move(c0), {}, factory);
  ASSERT_TRUE(client.open(1, "f").is_ok());
  ASSERT_TRUE(client.shutdown().is_ok());  // server closes this connection
  // Next op redials, which renegotiates, replays open, and succeeds.
  ASSERT_TRUE(client.write(1, 0, pattern(1_KiB, 25)).is_ok());
  EXPECT_EQ(server->stats().hellos, 2u);
  EXPECT_EQ(client.negotiated_version(), kProtoVersion);
}

// Append one v1 request frame (header + payload) to a scripted byte stream.
void append_request(std::vector<std::byte>& wire, FrameHeader req,
                    std::span<const std::byte> payload = {}) {
  req.type = MsgType::request;
  req.version = kProtoVersion;
  req.payload_len = payload.size();
  if (!payload.empty()) req.stamp_payload_crc(payload);
  std::byte hdr[FrameHeader::kWireSize];
  req.encode(std::span<std::byte, FrameHeader::kWireSize>(hdr));
  wire.insert(wire.end(), std::begin(hdr), std::end(hdr));
  wire.insert(wire.end(), payload.begin(), payload.end());
}

TEST(Integrity, FeedBytesRunsAScriptedSessionInline) {
  // feed_bytes drives the receive pipeline on the caller's thread for a
  // connection with no peer: ops execute, replies are built and dropped.
  auto m = std::make_unique<MemBackend>();
  MemBackend* mem = m.get();
  ServerConfig cfg;
  cfg.exec = ExecModel::thread_per_client;
  IonServer server(std::move(m), cfg);

  const auto data = pattern(4_KiB, 0xfeed);
  const std::string path = "fed";
  std::vector<std::byte> wire;
  std::uint64_t seq = 1;
  FrameHeader req;
  req.op = OpCode::hello;
  req.seq = seq++;
  append_request(wire, req);
  req = FrameHeader{};
  req.op = OpCode::open;
  req.fd = 1;
  req.seq = seq++;
  append_request(wire, req, std::as_bytes(std::span(path.data(), path.size())));
  req = FrameHeader{};
  req.op = OpCode::write;
  req.fd = 1;
  req.seq = seq++;
  append_request(wire, req, data);
  for (OpCode op : {OpCode::fsync, OpCode::close}) {
    req = FrameHeader{};
    req.op = op;
    req.fd = 1;
    req.seq = seq++;
    append_request(wire, req);
  }

  server.feed_bytes(wire);

  EXPECT_EQ(mem->snapshot(path), data) << "the written bytes must reach the backend";
  const obs::Snapshot snap = server.metrics();
  EXPECT_EQ(snap.counter("server.integrity.hellos"), 1u);
  EXPECT_EQ(snap.counter("server.integrity.payload_crc_errors"), 0u);
  EXPECT_EQ(snap.counter("server.reply.peer_gone"), seq - 1) << "one dropped reply per request";
  EXPECT_EQ(snap.counter("server.reply.enqueued"), 0u);
  // No lane was started: nothing under server.rt.lane.* was ever registered.
  const std::string lane_prefix = "server.rt.lane.";
  auto has_lane_metric = [&](const auto& metrics) {
    return std::any_of(metrics.begin(), metrics.end(),
                       [&](const auto& kv) { return kv.first.starts_with(lane_prefix); });
  };
  EXPECT_FALSE(has_lane_metric(snap.counters));
  EXPECT_FALSE(has_lane_metric(snap.gauges));
  EXPECT_FALSE(has_lane_metric(snap.histograms));
  server.stop();
}

}  // namespace
}  // namespace iofwd::rt
