// End-to-end observability: an IonServer wired to an external registry,
// tracer, and flight recorder, driven through a real Client. Pins the read
// contract — metrics() is a self-contained snapshot of the registry, the
// same registry serves the burst buffer ("bb.*"), and analysis can render
// the whole thing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/report.hpp"
#include "core/units.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::counter;
using testsupport::gauge;
using testsupport::ClusterOptions;
using testsupport::TestCluster;

TestCluster obs_cluster(ServerConfig cfg = {}) {
  ClusterOptions o;
  o.server = cfg;
  o.server.flight_recorder_ops = 16;
  o.with_tracer = true;
  return TestCluster(o);
}

void run_ops(ForwardingClient& client) {
  ASSERT_TRUE(client.open(1, "f").is_ok());
  const std::vector<std::byte> data(64_KiB, std::byte{0x5a});
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(client.close(1).is_ok());
}

TEST(ServerObs, SharedRegistryRecordsServerNamespace) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const obs::Snapshot snap = tc.server().metrics();
  // open + write + fsync + read + close = 5 ops.
  EXPECT_EQ(snap.counter("server.ops"), 5u);
  EXPECT_EQ(snap.counter("server.bytes_in"), 64_KiB);
  EXPECT_EQ(snap.counter("server.bytes_out"), 64_KiB);
  ASSERT_NE(snap.histogram("server.write_latency_us"), nullptr);
  EXPECT_EQ(snap.histogram("server.write_latency_us")->count, 1u);
  ASSERT_NE(snap.histogram("server.read_latency_us"), nullptr);
  EXPECT_EQ(snap.histogram("server.read_latency_us")->count, 1u);
  // The external registry IS the server's registry (no private copy).
  EXPECT_EQ(&tc.server().registry(), &tc.registry());
  EXPECT_EQ(tc.registry().counter("server.ops").value(), 5u);
}

// metrics() is the only read surface, so it must carry the queue and pool
// state that lives outside the registry: each snapshot mirrors it into
// gauges first.
TEST(ServerObs, MetricsMirrorQueueAndPoolState) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const obs::Snapshot snap = tc.server().metrics();
  EXPECT_GE(gauge(snap, "server.queue_batches"), 1) << "the staged write ran as a batch";
  EXPECT_GE(gauge(snap, "server.queue_max_depth"), 1);
  EXPECT_GE(gauge(snap, "server.bml_high_watermark"), static_cast<std::int64_t>(64_KiB));
  EXPECT_EQ(gauge(snap, "server.bml_in_use"), 0) << "every lease returned";
  EXPECT_EQ(counter(snap, "server.ops"), tc.registry().counter("server.ops").value());
  EXPECT_EQ(counter(snap, "server.deferred_errors"), 0u);
  EXPECT_EQ(counter(snap, "server.deadline_expired"), 0u);
}

TEST(ServerObs, BurstBufferSharesTheRegistry) {
  ServerConfig cfg;
  cfg.bb_bytes = 4_MiB;
  TestCluster tc = obs_cluster(cfg);
  run_ops(tc.client());
  const obs::Snapshot snap = tc.server().metrics();
  EXPECT_GT(snap.counter("bb.writes_in"), 0u);
  EXPECT_EQ(snap.counter("bb.bytes_in"), 64_KiB);
}

TEST(ServerObs, FlightRecorderCapturesCompletedOps) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const obs::FlightRecorder* fr = tc.server().flight_recorder();
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->recorded(), 5u);
  const auto snap = fr->snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_STREQ(snap[1].op, "write");
  EXPECT_EQ(snap[1].bytes, 64_KiB);
  EXPECT_EQ(snap[1].status, 0);
}

TEST(ServerObs, TracerReceivesSpansAndCounterTracks) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  EXPECT_GT(tc.tracer().event_count(), 0u);
  const std::string j = tc.tracer().to_json();
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("queue_depth"), std::string::npos);
}

// Hand-built on purpose: pins that a server with NO registry in its config
// self-provisions a private one (TestCluster always injects a registry).
TEST(ServerObs, DefaultConfigOwnsAPrivateRegistry) {
  ServerConfig cfg;  // no registry: the server must self-provision
  auto server = std::make_unique<IonServer>(std::make_unique<MemBackend>(), cfg);
  auto [a, b] = InProcTransport::make_pair();
  server->serve(std::move(a));
  Client client(std::move(b));
  ASSERT_TRUE(client.open(1, "f").is_ok());
  ASSERT_TRUE(client.close(1).is_ok());
  EXPECT_EQ(counter(server->metrics(), "server.ops"), 2u);
  EXPECT_EQ(server->registry().counter("server.ops").value(), 2u);
}

TEST(ServerObs, MetricsTableRendersEveryKind) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const std::string out =
      analysis::metrics_table(tc.server().metrics(), "obs test").render();
  EXPECT_NE(out.find("server.ops"), std::string::npos);
  EXPECT_NE(out.find("server.write_latency_us"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
  EXPECT_NE(out.find("gauge"), std::string::npos);
}

}  // namespace
}  // namespace iofwd::rt
