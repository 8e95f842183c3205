// Runtime metric registry: the one place every subsystem's counters live.
//
// The runtime stack (rt/, bb/, fault/, the simulated proto/ forwarders) used
// to keep five hand-rolled snapshot structs, each behind its own mutex. The
// registry replaces them with cheap shared handles:
//
//   * Counter   — monotonically increasing, thread-sharded so concurrent
//     writers on the op hot path never contend on one cache line.
//   * Gauge     — instantaneous signed value (set/add), plus a max-tracking
//     update for high-watermark style metrics.
//   * Histogram — log2-bucketed value distribution (latencies, sizes) with
//     p50/p95/p99/max snapshots; recording is two relaxed atomic adds.
//
// Handles are registered by name ("server.ops", "bb.flushed_bytes", ...) and
// live as long as the registry; subsystems cache references at construction
// so the hot path never touches the registration mutex. A Snapshot is the
// one read surface: tests, benches and tools read counts by registry name,
// and analysis::metrics_table renders any Snapshot as a DiagTable.
//
// Overhead budget: <2% on the server op path versus no instrumentation,
// gated by bench/ext_obs_overhead.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace iofwd::obs {

// Shard count for Counter/Histogram. Each shard sits on its own cache line;
// a thread picks its shard once (thread-local) so writers spread out.
inline constexpr std::size_t kMetricShards = 8;

namespace detail {
// Stable per-thread shard index, assigned round-robin on first use.
[[nodiscard]] inline std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return mine;
}
}  // namespace detail

// Monotonic counter. add() is one relaxed fetch_add on a thread-local shard.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t d) noexcept {
    cells_[detail::shard_index()].v.fetch_add(d, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kMetricShards> cells_{};
};

// Instantaneous signed value. Single atomic: gauges are read/written rarely
// compared to counters (queue depth samples, high watermarks).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  // Raise the gauge to `v` if above its current value (high watermarks).
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Point-in-time view of one Histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  // Percentiles interpolated within log2 buckets (approximate by design;
  // exact for the bucket they land in, linear across its width).
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

// Log2-bucketed histogram: bucket 0 holds value 0, bucket i (i >= 1) holds
// [2^(i-1), 2^i). record() is a relaxed add into a thread-local shard plus a
// sum update; snapshot() merges shards and interpolates percentiles.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t x) noexcept {
    Shard& s = shards_[detail::shard_index()];
    s.buckets[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(x, std::memory_order_relaxed);
    std::uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (x > cur && !s.max.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t x) noexcept {
    if (x == 0) return 0;
    return std::min<std::size_t>(static_cast<std::size_t>(64 - std::countl_zero(x)),
                                 kBuckets - 1);
  }
  // Inclusive lower / exclusive upper value bound of bucket b.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : (b == 1 ? 1 : 1ull << (b - 1));
  }
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b == 0 ? 1 : (b >= 63 ? ~0ull : 1ull << b);
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

// Point-in-time view of a whole registry: plain values, safe to ship across
// layers (analysis/ renders these without depending on who produced them).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // 0 / nullptr when the name was never registered.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] std::int64_t gauge(const std::string& name) const;
  [[nodiscard]] const HistogramSnapshot* histogram(const std::string& name) const;
};

// Merge `src` into `dst` with every metric name prefixed — the mechanism
// behind cluster snapshots, where shard i's registry lands under
// "cluster.shard.<i>.*". Prefixed names that already exist are overwritten.
void merge_prefixed(Snapshot& dst, const Snapshot& src, const std::string& prefix);

// Fold `src` into `dst` as one more instance of the same subsystem — the
// fleet total over shard clients, psets or ION shards. Counters add. Gauges
// keep the larger value (the merged gauges are levels and high watermarks
// such as fwd.max_queue_depth; a gauge that must add belongs in a counter).
// Histograms add counts and sums and keep the larger max and percentiles, an
// upper bound, since a snapshot no longer holds the buckets.
void merge_sum(Snapshot& dst, const Snapshot& src);

// Named handle registry. Registration (first lookup of a name) takes a
// mutex; the returned references are stable for the registry's lifetime, so
// hot paths cache them and never look up again. Lookups of an existing name
// return the same handle — sharing a registry across subsystems aggregates
// into one namespace ("server.*", "client.*", "bb.*", "retry.*", "fwd.*").
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace iofwd::obs
