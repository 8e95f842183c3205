// Per-op deadlines: wire round-trip, server-side enforcement (expired ops
// bounce with timed_out, unexecuted), and the client roundtrip watchdog.
#include <gtest/gtest.h>

#include <chrono>

#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"

namespace iofwd::fault {
namespace {

using namespace std::chrono_literals;

TEST(Deadline, FrameHeaderCarriesDeadline) {
  rt::FrameHeader h;
  h.type = rt::MsgType::request;
  h.op = rt::OpCode::write;
  h.deadline_ms = 1234;
  std::byte buf[rt::FrameHeader::kWireSize];
  h.encode(std::span<std::byte, rt::FrameHeader::kWireSize>(buf));
  auto d = rt::FrameHeader::decode(std::span<const std::byte, rt::FrameHeader::kWireSize>(buf));
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().deadline_ms, 1234u);
}

TEST(Deadline, ServerBouncesExpiredOpWithoutExecuting) {
  // A backend write slowed to 300ms holds the drain barrier; the fsync that
  // follows carries a 20ms deadline and must bounce with timed_out after the
  // drain instead of executing.
  auto plan = std::make_shared<FaultPlan>();
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  rt::IonServer server(
      std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan), cfg);

  auto [s, c] = rt::InProcTransport::make_pair();
  server.serve(std::move(s));
  rt::ClientConfig ccfg;
  ccfg.deadline_ms = 20;
  rt::Client client(std::move(c), ccfg);

  ASSERT_TRUE(client.open(1, "f").is_ok());
  plan->add({.op = OpKind::write, .nth = 1, .error = Errc::ok, .latency = 300'000us});
  std::vector<std::byte> data(4096, std::byte{0x42});
  ASSERT_TRUE(client.write(1, 0, data).is_ok()) << "staged ack arrives before the slow flush";

  Status st = client.fsync(1);
  EXPECT_EQ(st.code(), Errc::timed_out) << st.to_string();
  EXPECT_GE(server.stats().deadline_expired, 1u);
}

TEST(Deadline, UnexpiredOpsAreUnaffected) {
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  rt::IonServer server(std::make_unique<rt::MemBackend>(), cfg);
  auto [s, c] = rt::InProcTransport::make_pair();
  server.serve(std::move(s));
  rt::ClientConfig ccfg;
  ccfg.deadline_ms = 10'000;  // generous: nothing should expire
  rt::Client client(std::move(c), ccfg);

  ASSERT_TRUE(client.open(1, "f").is_ok());
  std::vector<std::byte> data(64_KiB, std::byte{0x17});
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(client.close(1).is_ok());
  EXPECT_EQ(server.stats().deadline_expired, 0u);
}

TEST(Deadline, ClientWatchdogKillsHungRoundtrip) {
  // No server behind the pair: the roundtrip would block forever without
  // the watchdog.
  auto [s, c] = rt::InProcTransport::make_pair();
  rt::ClientConfig ccfg;
  ccfg.roundtrip_timeout_ms = 50;
  rt::Client client(std::move(c), ccfg);

  const auto t0 = std::chrono::steady_clock::now();
  Status st = client.open(1, "never");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(st.code(), Errc::timed_out) << st.to_string();
  EXPECT_LT(elapsed, 5s) << "watchdog did not fire";
  EXPECT_EQ(client.stats().timeouts, 1u);
  s->close();
}

TEST(Deadline, WatchdogDoesNotFireOnFastRoundtrips) {
  rt::IonServer server(std::make_unique<rt::MemBackend>(), {});
  auto [s, c] = rt::InProcTransport::make_pair();
  server.serve(std::move(s));
  rt::ClientConfig ccfg;
  ccfg.roundtrip_timeout_ms = 5'000;
  rt::Client client(std::move(c), ccfg);

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.open(i, std::string("f").append(std::to_string(i))).is_ok());
    ASSERT_TRUE(client.close(i).is_ok());
  }
  EXPECT_EQ(client.stats().timeouts, 0u);
}

}  // namespace
}  // namespace iofwd::fault
