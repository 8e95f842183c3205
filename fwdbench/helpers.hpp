// Statistics and input-generation helpers for the forwarding benchmark.
//
// Kept header-only and free of runtime dependencies beyond core/rng.hpp so
// helpers_test.cpp can pin their behaviour without a server.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.hpp"

namespace fwdbench {

// A percentile together with the sample count it was taken from.
struct Pct {
  double value = 0.0;
  std::size_t n = 0;       // samples the percentile was taken over
  std::size_t beyond = 0;  // samples strictly above its rank
};

// Samples that must lie beyond a percentile's rank before it is reported:
// a p99 over 300 samples is the third-largest value, not a tail estimate.
inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank percentile (q in (0, 1]). Refuses (nullopt) when fewer than
// kMinBeyond samples lie beyond the rank, so p50 needs 20 samples and p99
// needs 1000.
inline std::optional<Pct> percentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0 || !(q > 0.0) || q > 1.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  auto kth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), kth, v.end());
  return Pct{*kth, n, beyond};
}

// Median of a handful of per-round values (set-up times, per-round rates).
// Unlike percentile() it never refuses: it summarises repetitions, not a
// latency tail. Returns 0 for an empty input.
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Drift of one descriptor's latencies, in issue order: the p50 of its last
// quarter of ops over the p50 of its first quarter. 1.0 means per-op cost
// does not grow with the ops already issued on the descriptor. Refuses when
// a quarter is too short for percentile().
inline std::optional<double> quarter_drift(std::span<const double> lat) {
  const std::size_t q = lat.size() / 4;
  auto first = percentile(std::vector<double>(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(q)), 0.5);
  auto last = percentile(std::vector<double>(lat.end() - static_cast<std::ptrdiff_t>(q), lat.end()), 0.5);
  if (!first || !last || first->value <= 0.0) return std::nullopt;
  return last->value / first->value;
}

// Independent generator for one input stream (a client's payload pool, its
// block order, ...) of one run: the same (seed, stream) always yields the
// same sequence, and different streams of one seed do not overlap in use.
inline iofwd::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  iofwd::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
  return iofwd::Rng(sm.next());
}

// `blocks` payload blocks of `block_bytes` each, drawn from (seed, stream).
inline std::vector<std::byte> make_pool(std::uint64_t seed, std::uint64_t stream,
                                        std::size_t blocks, std::size_t block_bytes) {
  std::vector<std::byte> pool(blocks * block_bytes);
  iofwd::Rng rng = stream_rng(seed, stream);
  for (std::size_t i = 0; i + 8 <= pool.size(); i += 8) {
    const std::uint64_t x = rng.next();
    std::memcpy(pool.data() + i, &x, 8);
  }
  return pool;
}

// A permutation of [0, n), drawn from (seed, stream).
inline std::vector<std::uint32_t> make_permutation(std::uint64_t seed, std::uint64_t stream,
                                                   std::uint32_t n) {
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  iofwd::Rng rng = stream_rng(seed, stream);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  return perm;
}

// Every written block starts with a 16-byte stamp naming its writer and the
// writer's op index, so a read that returns an older or another client's
// version of the block cannot pass verification.
inline constexpr std::size_t kStampBytes = 16;

inline void stamp(std::span<std::byte> block, std::uint64_t writer, std::uint64_t op) {
  std::memcpy(block.data(), &writer, 8);
  std::memcpy(block.data() + 8, &op, 8);
}

// True if `got` is `pool_block` as stamped by (writer, op).
inline bool matches(std::span<const std::byte> got, std::span<const std::byte> pool_block,
                    std::uint64_t writer, std::uint64_t op) {
  if (got.size() != pool_block.size() || got.size() < kStampBytes) return false;
  std::uint64_t w = 0;
  std::uint64_t o = 0;
  std::memcpy(&w, got.data(), 8);
  std::memcpy(&o, got.data() + 8, 8);
  return w == writer && o == op &&
         std::memcmp(got.data() + kStampBytes, pool_block.data() + kStampBytes,
                     got.size() - kStampBytes) == 0;
}

}  // namespace fwdbench
