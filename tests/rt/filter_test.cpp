#include "rt/filter.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/metrics.hpp"

namespace iofwd::rt {
namespace {

using testsupport::counter;

std::vector<std::byte> doubles(std::initializer_list<double> vs) {
  std::vector<std::byte> out(vs.size() * sizeof(double));
  std::size_t i = 0;
  for (double v : vs) {
    std::memcpy(out.data() + i * sizeof(double), &v, sizeof(double));
    ++i;
  }
  return out;
}

TEST(DownsampleFilter, KeepsEveryKth) {
  DownsampleFilter f(/*stride=*/2, /*element_bytes=*/8);
  auto data = doubles({1.0, 2.0, 3.0, 4.0, 5.0});
  ASSERT_TRUE(f.apply(0, 0, data).is_ok());
  ASSERT_EQ(data.size(), 3 * sizeof(double));
  double v;
  std::memcpy(&v, data.data(), 8);
  EXPECT_EQ(v, 1.0);
  std::memcpy(&v, data.data() + 8, 8);
  EXPECT_EQ(v, 3.0);
  std::memcpy(&v, data.data() + 16, 8);
  EXPECT_EQ(v, 5.0);
}

TEST(DownsampleFilter, StrideOneIsPassthrough) {
  DownsampleFilter f(1);
  auto data = doubles({1.0, 2.0});
  const auto before = data;
  ASSERT_TRUE(f.apply(0, 0, data).is_ok());
  EXPECT_EQ(data, before);
}

TEST(DownsampleFilter, RejectsRaggedPayload) {
  DownsampleFilter f(2, 8);
  std::vector<std::byte> data(13);
  EXPECT_EQ(f.apply(0, 0, data).code(), Errc::invalid_argument);
}

TEST(DownsampleFilter, MapsOffsets) {
  DownsampleFilter f(4);
  EXPECT_EQ(f.map_offset(4096), 1024u);
  EXPECT_EQ(f.name(), "downsample/4");
}

TEST(ZeroRleFilter, RoundTripsSparseData) {
  ZeroRleFilter f;
  std::vector<std::byte> data(64 * 1024, std::byte{0});
  data[5] = std::byte{7};
  data[40000] = std::byte{9};
  const auto original = data;
  ASSERT_TRUE(f.apply(0, 0, data).is_ok());
  EXPECT_LT(data.size(), original.size() / 100) << "sparse data must shrink dramatically";
  auto back = ZeroRleFilter::decode(data);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), original);
  EXPECT_EQ(f.bytes_in(), original.size());
  EXPECT_EQ(f.bytes_out(), data.size());
}

TEST(ZeroRleFilter, RoundTripsRandomData) {
  ZeroRleFilter f;
  Rng rng(3);
  std::vector<std::byte> data(4096);
  for (auto& b : data) b = static_cast<std::byte>(rng.below(4));  // many zeros
  const auto original = data;
  ASSERT_TRUE(f.apply(0, 0, data).is_ok());
  auto back = ZeroRleFilter::decode(data);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), original);
}

TEST(ZeroRleFilter, EmptyInput) {
  ZeroRleFilter f;
  std::vector<std::byte> data;
  ASSERT_TRUE(f.apply(0, 0, data).is_ok());
  EXPECT_TRUE(data.empty());
  auto back = ZeroRleFilter::decode(data);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(ZeroRleFilter, DecodeRejectsTruncation) {
  std::vector<std::byte> bad{std::byte{1}, std::byte{2}};
  EXPECT_EQ(ZeroRleFilter::decode(bad).code(), Errc::protocol_error);
}

TEST(MomentsFilter, ComputesRunningMoments) {
  MomentsFilter f;
  auto a = doubles({1.0, 5.0, 3.0});
  auto b = doubles({-2.0, 10.0});
  ASSERT_TRUE(f.apply(0, 0, a).is_ok());
  ASSERT_TRUE(f.apply(0, 24, b).is_ok());
  const auto m = f.moments();
  EXPECT_EQ(m.count, 5u);
  EXPECT_EQ(m.min, -2.0);
  EXPECT_EQ(m.max, 10.0);
  EXPECT_DOUBLE_EQ(m.sum, 17.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.4);
  // Payload untouched.
  EXPECT_EQ(a, doubles({1.0, 5.0, 3.0}));
}

TEST(FilterChain, AppliesInOrderAndMapsOffsets) {
  FilterChain chain;
  auto moments = std::make_shared<MomentsFilter>();
  chain.add(moments);
  chain.add(std::make_shared<DownsampleFilter>(2, 8));
  auto data = doubles({1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(chain.apply(0, 64, data).is_ok());
  EXPECT_EQ(data.size(), 2 * sizeof(double));       // downsampled
  EXPECT_EQ(moments->moments().count, 4u);          // observed before reduction
  EXPECT_EQ(chain.map_offset(64), 32u);
}

TEST(FilterChain, EmptyChainIsIdentity) {
  FilterChain chain;
  EXPECT_TRUE(chain.empty());
  auto data = doubles({1.0});
  ASSERT_TRUE(chain.apply(0, 8, data).is_ok());
  EXPECT_EQ(data, doubles({1.0}));
  EXPECT_EQ(chain.map_offset(8), 8u);
}

// ---------------------------------------------------------------------------
// Server integration: filtering on the forwarding path.
// ---------------------------------------------------------------------------

TEST(FilterServer, DownsampleReducesStoredData) {
  auto backend = std::make_unique<MemBackend>();
  auto* mem = backend.get();
  IonServer server(std::move(backend), {});
  FilterChain chain;
  auto moments = std::make_shared<MomentsFilter>();
  chain.add(moments);
  chain.add(std::make_shared<DownsampleFilter>(4, 8));
  server.set_filter_chain(std::move(chain));

  auto [se, ce] = InProcTransport::make_pair();
  server.serve(std::move(se));
  Client client(std::move(ce));

  ASSERT_TRUE(client.open(1, "field").is_ok());
  std::vector<double> field(1024);
  for (std::size_t i = 0; i < field.size(); ++i) field[i] = static_cast<double>(i);
  std::vector<std::byte> payload(field.size() * 8);
  std::memcpy(payload.data(), field.data(), payload.size());
  ASSERT_TRUE(client.write(1, 0, payload).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());

  // Stored file holds the 4:1 downsampled field.
  const auto stored = mem->snapshot("field");
  ASSERT_EQ(stored.size(), 256 * 8u);
  double v;
  std::memcpy(&v, stored.data() + 8, 8);
  EXPECT_EQ(v, 4.0);  // second kept element is field[4]

  // In-situ analytics observed the full-resolution data.
  EXPECT_EQ(moments->moments().count, 1024u);
  EXPECT_EQ(moments->moments().max, 1023.0);

  const obs::Snapshot s = server.metrics();
  EXPECT_EQ(counter(s, "server.filter_bytes_in"), payload.size());
  EXPECT_EQ(counter(s, "server.filter_bytes_out"), 256 * 8u);
  ASSERT_TRUE(client.close(1).is_ok());
}

TEST(FilterServer, FilterErrorBecomesDeferredError) {
  auto backend = std::make_unique<MemBackend>();
  IonServer server(std::move(backend), {});
  FilterChain chain;
  chain.add(std::make_shared<DownsampleFilter>(2, 8));
  server.set_filter_chain(std::move(chain));

  auto [se, ce] = InProcTransport::make_pair();
  server.serve(std::move(se));
  Client client(std::move(ce));
  ASSERT_TRUE(client.open(1, "f").is_ok());
  std::vector<std::byte> ragged(13);  // not a whole number of doubles
  ASSERT_TRUE(client.write(1, 0, ragged).is_ok()) << "staging still succeeds";
  EXPECT_EQ(client.fsync(1).code(), Errc::invalid_argument);
  EXPECT_TRUE(client.close(1).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
