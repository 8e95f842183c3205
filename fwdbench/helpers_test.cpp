#include "helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(FwdbenchPercentile, ReportsValueAndSampleCount) {
  auto p = fwdbench::percentile(iota_samples(1000), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 990.0);
  EXPECT_EQ(p->n, 1000u);
  EXPECT_EQ(p->beyond, 10u);

  auto m = fwdbench::percentile(iota_samples(101), 0.5);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->value, 51.0);
  EXPECT_EQ(m->n, 101u);
}

TEST(FwdbenchPercentile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(fwdbench::percentile(iota_samples(999), 0.99).has_value());
  EXPECT_TRUE(fwdbench::percentile(iota_samples(1000), 0.99).has_value());
  EXPECT_FALSE(fwdbench::percentile(iota_samples(19), 0.5).has_value());
  EXPECT_TRUE(fwdbench::percentile(iota_samples(20), 0.5).has_value());
  EXPECT_FALSE(fwdbench::percentile({}, 0.5).has_value());
}

TEST(FwdbenchPercentile, IgnoresInputOrder) {
  std::vector<double> v = iota_samples(500);
  std::reverse(v.begin(), v.end());
  auto p = fwdbench::percentile(v, 0.9);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 450.0);
}

TEST(FwdbenchDrift, LastQuarterOverFirstQuarter) {
  // 400 samples: the first quarter reads 10, the last reads 30.
  std::vector<double> v(400, 20.0);
  std::fill(v.begin(), v.begin() + 100, 10.0);
  std::fill(v.end() - 100, v.end(), 30.0);
  auto d = fwdbench::quarter_drift(v);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 3.0);

  std::vector<double> flat(400, 7.0);
  EXPECT_DOUBLE_EQ(fwdbench::quarter_drift(flat).value(), 1.0);
}

TEST(FwdbenchDrift, RefusesShortDescriptors) {
  EXPECT_FALSE(fwdbench::quarter_drift(std::vector<double>(79, 1.0)).has_value());
  EXPECT_TRUE(fwdbench::quarter_drift(std::vector<double>(80, 1.0)).has_value());
}

TEST(FwdbenchInputs, SameSeedSameInputs) {
  EXPECT_EQ(fwdbench::make_pool(7, 0, 4, 4096), fwdbench::make_pool(7, 0, 4, 4096));
  EXPECT_EQ(fwdbench::make_permutation(7, 100, 128), fwdbench::make_permutation(7, 100, 128));
}

TEST(FwdbenchInputs, SeedAndStreamChangeInputs) {
  const auto base = fwdbench::make_pool(7, 0, 4, 4096);
  EXPECT_NE(base, fwdbench::make_pool(8, 0, 4, 4096));
  EXPECT_NE(base, fwdbench::make_pool(7, 1, 4, 4096));
  EXPECT_NE(fwdbench::make_permutation(7, 100, 128), fwdbench::make_permutation(8, 100, 128));
  auto perm = fwdbench::make_permutation(3, 1, 128);
  std::sort(perm.begin(), perm.end());
  for (std::uint32_t i = 0; i < 128; ++i) EXPECT_EQ(perm[i], i);
}

TEST(FwdbenchInputs, StampedBlocksVerifyOnlyAgainstTheirWriter) {
  auto pool = fwdbench::make_pool(1, 0, 1, 256);
  std::span<std::byte> block(pool.data(), pool.size());
  fwdbench::stamp(block, 2, 41);
  const std::vector<std::byte> got(pool.begin(), pool.end());
  EXPECT_TRUE(fwdbench::matches(got, block, 2, 41));
  EXPECT_FALSE(fwdbench::matches(got, block, 2, 40));  // an older version
  EXPECT_FALSE(fwdbench::matches(got, block, 3, 41));  // another writer
  std::vector<std::byte> torn = got;
  torn.back() ^= std::byte{1};
  EXPECT_FALSE(fwdbench::matches(torn, block, 2, 41));
}

}  // namespace
