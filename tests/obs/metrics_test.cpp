#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace iofwd::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentWritersLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&c] {
      for (int j = 0; j < kPerThread; ++j) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddAndMax) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-15);
  EXPECT_EQ(g.value(), -5);
  g.update_max(7);
  EXPECT_EQ(g.value(), 7);
  g.update_max(3);  // below current: no change
  EXPECT_EQ(g.value(), 7);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), Histogram::kBuckets - 1);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << "bucket " << b;
    EXPECT_LT(Histogram::bucket_lo(b), Histogram::bucket_hi(b)) << "bucket " << b;
  }
}

TEST(Histogram, SnapshotCountSumMaxMean) {
  Histogram h;
  for (std::uint64_t x : {10u, 20u, 30u, 40u}) h.record(x);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 100u);
  EXPECT_EQ(s.max, 40u);
  EXPECT_DOUBLE_EQ(s.mean(), 25.0);
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Histogram, PercentilesMonotonicAndBounded) {
  Histogram h;
  for (std::uint64_t x = 1; x <= 1000; ++x) h.record(x);
  const auto s = h.snapshot();
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, static_cast<double>(s.max));
  // Log2 buckets are approximate, but p50 of uniform 1..1000 must land
  // within a factor-of-two of 500 (its bucket is [256, 512)).
  EXPECT_GE(s.p50, 256.0);
  EXPECT_LE(s.p50, 1000.0);
}

TEST(Histogram, SingleValuePercentilesClampToMax) {
  Histogram h;
  h.record(100);
  const auto s = h.snapshot();
  // 100 lands in bucket [64, 128); interpolation never exceeds the
  // observed max, so every percentile reports <= 100.
  EXPECT_LE(s.p50, 100.0);
  EXPECT_LE(s.p99, 100.0);
  EXPECT_EQ(s.max, 100u);
}

// TSan target: concurrent record() against snapshot() must be race-free and
// the final count exact.
TEST(Histogram, ConcurrentRecordersAndSnapshots) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads + 1);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&h, i] {
      for (int j = 0; j < kPerThread; ++j) {
        h.record(static_cast<std::uint64_t>(i * kPerThread + j) % 4096);
      }
    });
  }
  ts.emplace_back([&h] {
    for (int j = 0; j < 50; ++j) {
      const auto s = h.snapshot();
      EXPECT_LE(s.p50, s.p99);
    }
  });
  for (auto& t : ts) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricRegistry, SameNameReturnsSameHandle) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.ops");
  Counter& b = reg.counter("x.ops");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(&reg.gauge("x.depth"), &reg.gauge("x.depth"));
  EXPECT_EQ(&reg.histogram("x.lat"), &reg.histogram("x.lat"));
}

TEST(MetricRegistry, SnapshotCoversAllKindsByName) {
  MetricRegistry reg;
  reg.counter("a.ops").add(7);
  reg.gauge("a.depth").set(-3);
  reg.histogram("a.lat").record(12);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter("a.ops"), 7u);
  EXPECT_EQ(s.gauge("a.depth"), -3);
  ASSERT_NE(s.histogram("a.lat"), nullptr);
  EXPECT_EQ(s.histogram("a.lat")->count, 1u);
  // Unregistered names read as zero / null, so renderers need no guards.
  EXPECT_EQ(s.counter("missing"), 0u);
  EXPECT_EQ(s.gauge("missing"), 0);
  EXPECT_EQ(s.histogram("missing"), nullptr);
}

TEST(MetricRegistry, MergeSumAddsCountersAndKeepsPeakGauges) {
  MetricRegistry a;
  MetricRegistry b;
  a.counter("x.ops").add(3);
  b.counter("x.ops").add(4);
  b.counter("x.only_b").add(1);
  a.gauge("x.max_depth").set(9);
  b.gauge("x.max_depth").set(5);
  a.histogram("x.lat").record(10);
  b.histogram("x.lat").record(1000);
  b.histogram("x.lat").record(2);

  Snapshot total;
  merge_sum(total, a.snapshot());
  merge_sum(total, b.snapshot());
  EXPECT_EQ(total.counter("x.ops"), 7u);
  EXPECT_EQ(total.counter("x.only_b"), 1u);
  EXPECT_EQ(total.gauge("x.max_depth"), 9);
  const HistogramSnapshot* h = total.histogram("x.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 1012u);
  EXPECT_EQ(h->max, 1000u);
  EXPECT_GE(h->p99, b.snapshot().histogram("x.lat")->p99);
}

}  // namespace
}  // namespace iofwd::obs
