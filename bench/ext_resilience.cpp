// Extension experiment: resilience layer (src/fault/).
//
// A sequential write burst is driven through a backend whose writes fail
// with a configurable probability (seeded FaultPlan, transient io_error).
// Each fault rate runs twice: bare (every injected fault surfaces to the
// caller, its bytes lost) and wrapped in RetryingBackend (transient faults
// absorbed by capped exponential backoff). Compared: goodput, failed ops,
// and the retry ledger. The paper's forwarding pipeline only helps if it
// keeps forwarding when the far side misbehaves.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "fault/retry.hpp"
#include "rt/backend.hpp"

namespace {

using namespace iofwd;

constexpr std::uint64_t kChunk = 64_KiB;
constexpr std::uint64_t kSeed = 0xbe51;

struct RunResult {
  double elapsed_ms = 0;
  double goodput_gib_s = 0;  // acknowledged bytes / wall time
  std::uint64_t ok_writes = 0;
  std::uint64_t failed_writes = 0;
};

RunResult run_burst(rt::IoBackend& backend, int writes, const std::vector<std::byte>& chunk) {
  RunResult r;
  (void)backend.open(1, "burst");
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < writes; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * kChunk;
    if (backend.write(1, off, chunk).is_ok()) {
      ++r.ok_writes;
    } else {
      ++r.failed_writes;
    }
  }
  (void)backend.fsync(1);
  (void)backend.close(1);
  r.elapsed_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                     .count();
  const double acked = static_cast<double>(r.ok_writes * kChunk);
  r.goodput_gib_s = acked / (1_GiB * r.elapsed_ms / 1e3);
  return r;
}

std::string pct(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g%%", rate * 100.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iofwd;
  const auto args = bench::BenchArgs::parse(argc, argv);
  // 2048 x 64 KiB = 128 MiB burst. Floor at 1024 even in --quick: shorter
  // runs are noise-dominated and make the recovery ratio meaningless.
  const int writes = std::max(1024, args.iters(2048));
  const std::uint64_t total = static_cast<std::uint64_t>(writes) * kChunk;

  std::vector<std::byte> chunk(kChunk);
  Rng rng(kSeed);
  for (auto& b : chunk) b = static_cast<std::byte>(rng.next());

  const double rates[] = {0.0, 0.001, 0.01, 0.05};

  analysis::FigureReport rep("ext_resilience",
                             "sequential burst (" + bench::mib(total) +
                                 ") vs injected transient write-fault rate",
                             "series", "see series");

  fault::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff = std::chrono::microseconds(50);
  policy.max_backoff = std::chrono::microseconds(5'000);

  double baseline_retry = 0;  // retry-on goodput at fault rate 0
  double retry_at_1pct = 0;
  std::uint64_t giveups_at_1pct = 0;

  // Best-of-3 per configuration: a single pass on a loaded machine is
  // noise-dominated and the recovery ratio below gates an exit code.
  constexpr int kReps = 3;

  for (const double rate : rates) {
    // Bare: injected faults surface; those chunks are simply lost.
    {
      RunResult best;
      for (int rep_i = 0; rep_i < kReps; ++rep_i) {
        auto plan = std::make_shared<fault::FaultPlan>(kSeed);
        if (rate > 0) {
          plan->add({.op = fault::OpKind::write, .probability = rate, .error = Errc::io_error});
        }
        fault::FaultyBackend be(std::make_unique<rt::MemBackend>(), plan);
        const auto r = run_burst(be, writes, chunk);
        if (r.goodput_gib_s > best.goodput_gib_s) best = r;
      }
      rep.add("retry off", "goodput GiB/s @" + pct(rate), best.goodput_gib_s);
      rep.add("retry off", "failed writes @" + pct(rate),
              static_cast<double>(best.failed_writes));
    }
    // Retried: the same seeded fault schedule, absorbed by the retry loop.
    {
      RunResult best;
      obs::Snapshot best_metrics;
      for (int rep_i = 0; rep_i < kReps; ++rep_i) {
        auto plan = std::make_shared<fault::FaultPlan>(kSeed);
        if (rate > 0) {
          plan->add({.op = fault::OpKind::write, .probability = rate, .error = Errc::io_error});
        }
        fault::RetryingBackend be(
            std::make_unique<fault::FaultyBackend>(std::make_unique<rt::MemBackend>(), plan),
            policy);
        const auto r = run_burst(be, writes, chunk);
        if (r.goodput_gib_s > best.goodput_gib_s) {
          best = r;
          best_metrics = be.registry().snapshot();
        }
      }
      rep.add("retry on", "goodput GiB/s @" + pct(rate), best.goodput_gib_s);
      rep.add("retry on", "failed writes @" + pct(rate),
              static_cast<double>(best.failed_writes));

      if (rate == 0.0) baseline_retry = best.goodput_gib_s;
      if (rate == 0.01) {
        retry_at_1pct = best.goodput_gib_s;
        giveups_at_1pct = best_metrics.counter("retry.giveups");
        std::printf("retry ledger at %s fault rate:\n", pct(rate).c_str());
        std::fputs(analysis::resilience_table(best_metrics).render().c_str(), stdout);
      }
    }
  }

  analysis::emit(rep);

  const double recovered = baseline_retry > 0 ? retry_at_1pct / baseline_retry : 0;
  std::printf(
      "at a 1%% transient write-fault rate the retry layer delivered %.1f%% of the\n"
      "fault-free goodput with %llu giveups; without it every faulted chunk is lost.\n",
      recovered * 100.0, static_cast<unsigned long long>(giveups_at_1pct));
  // Acceptance: retry-on recovers >= 90% of fault-free throughput at 1%.
  return (recovered >= 0.9 && giveups_at_1pct == 0) ? 0 : 1;
}
