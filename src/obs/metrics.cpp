#include "obs/metrics.hpp"

#include <algorithm>

namespace iofwd::obs {

namespace {

// Value at quantile q (0..1) given merged bucket counts: find the bucket the
// rank lands in, interpolate linearly across its [lo, hi) width, clamp to the
// observed max so a sparse top bucket cannot overshoot.
double quantile_from_buckets(const std::array<std::uint64_t, Histogram::kBuckets>& buckets,
                             std::uint64_t count, std::uint64_t observed_max, double q) {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count - 1) + 1.0;  // 1-based
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t prev = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) >= rank) {
      const double lo = static_cast<double>(Histogram::bucket_lo(b));
      const double hi = static_cast<double>(Histogram::bucket_hi(b));
      const double within =
          (rank - static_cast<double>(prev)) / static_cast<double>(buckets[b]);
      const double v = lo + (hi - lo) * within;
      return std::min(v, static_cast<double>(observed_max));
    }
  }
  return static_cast<double>(observed_max);
}

}  // namespace

HistogramSnapshot Histogram::snapshot() const {
  std::array<std::uint64_t, kBuckets> merged{};
  HistogramSnapshot s;
  for (const Shard& sh : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      merged[b] += sh.buckets[b].load(std::memory_order_relaxed);
    }
    s.sum += sh.sum.load(std::memory_order_relaxed);
    s.max = std::max(s.max, sh.max.load(std::memory_order_relaxed));
  }
  for (std::uint64_t c : merged) s.count += c;
  s.p50 = quantile_from_buckets(merged, s.count, s.max, 0.50);
  s.p95 = quantile_from_buckets(merged, s.count, s.max, 0.95);
  s.p99 = quantile_from_buckets(merged, s.count, s.max, 0.99);
  return s;
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

std::int64_t Snapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it != gauges.end() ? it->second : 0;
}

const HistogramSnapshot* Snapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it != histograms.end() ? &it->second : nullptr;
}

Counter& MetricRegistry::counter(const std::string& name) {
  std::scoped_lock lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  std::scoped_lock lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  std::scoped_lock lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void merge_prefixed(Snapshot& dst, const Snapshot& src, const std::string& prefix) {
  for (const auto& [name, v] : src.counters) dst.counters[prefix + name] = v;
  for (const auto& [name, v] : src.gauges) dst.gauges[prefix + name] = v;
  for (const auto& [name, v] : src.histograms) dst.histograms[prefix + name] = v;
}

void merge_sum(Snapshot& dst, const Snapshot& src) {
  for (const auto& [name, v] : src.counters) dst.counters[name] += v;
  for (const auto& [name, v] : src.gauges) {
    auto [it, fresh] = dst.gauges.try_emplace(name, v);
    if (!fresh) it->second = std::max(it->second, v);
  }
  for (const auto& [name, h] : src.histograms) {
    auto [it, fresh] = dst.histograms.try_emplace(name, h);
    if (fresh) continue;
    HistogramSnapshot& d = it->second;
    d.count += h.count;
    d.sum += h.sum;
    d.max = std::max(d.max, h.max);
    d.p50 = std::max(d.p50, h.p50);
    d.p95 = std::max(d.p95, h.p95);
    d.p99 = std::max(d.p99, h.p99);
  }
}

Snapshot MetricRegistry::snapshot() const {
  Snapshot s;
  std::scoped_lock lk(mu_);
  for (const auto& [name, c] : counters_) s.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_) s.histograms.emplace(name, h->snapshot());
  return s;
}

}  // namespace iofwd::obs
