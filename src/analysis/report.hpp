// Figure reports: the harness every bench binary uses to print a paper
// figure next to the measured reproduction, and to persist the data as CSV.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/metrics.hpp"

namespace iofwd::analysis {

// A grid of (x-category, series) -> value, preserving insertion order, with
// optional paper-expected values per cell for side-by-side comparison.
class FigureReport {
 public:
  FigureReport(std::string fig_id, std::string title, std::string x_name,
               std::string value_unit = "MiB/s");

  void add(const std::string& x, const std::string& series, double value);
  void add_expected(const std::string& x, const std::string& series, double value);

  [[nodiscard]] std::optional<double> get(const std::string& x, const std::string& series) const;

  // Table of measured values (one row per x, one column per series), with
  // "paper:<series>" columns interleaved where expectations were provided,
  // plus an ASCII chart of the measured series.
  [[nodiscard]] std::string render() const;

  // CSV: x,series,measured,expected
  [[nodiscard]] Status write_csv(const std::string& path) const;

  [[nodiscard]] const std::string& id() const { return fig_id_; }

 private:
  struct Cell {
    std::string x;
    std::string series;
    std::optional<double> measured;
    std::optional<double> expected;
  };
  Cell& cell(const std::string& x, const std::string& series);
  [[nodiscard]] const Cell* find(const std::string& x, const std::string& series) const;

  std::string fig_id_;
  std::string title_;
  std::string x_name_;
  std::string unit_;
  std::vector<std::string> xs_;      // insertion order
  std::vector<std::string> series_;  // insertion order
  std::vector<Cell> cells_;
};

// Convenience used by every bench main(): render to stdout and drop the CSV
// under results/ (created on demand). Returns the CSV path.
std::string emit(const FigureReport& report);

// A small titled label/value/note table for diagnostics that are not a
// figure grid (counter dumps, cache stats). Rows render in insertion order.
class DiagTable {
 public:
  explicit DiagTable(std::string title);

  void add(const std::string& label, const std::string& value, const std::string& note = "");
  void add(const std::string& label, double value, const std::string& note = "");

  [[nodiscard]] std::optional<std::string> get(const std::string& label) const;
  [[nodiscard]] std::string render() const;

 private:
  struct Row {
    std::string label;
    std::string value;
    std::string note;
  };
  std::string title_;
  std::vector<Row> rows_;
};

// Burst-buffer ratios computed from the "bb.*" counters of a snapshot:
// the share of read bytes served from cached extents, and ingested writes
// per backend write (>1 means bursts were coalesced; with no backend write
// yet, the ingested write count).
[[nodiscard]] double bb_hit_rate(const obs::Snapshot& snap);
[[nodiscard]] double bb_coalesce_ratio(const obs::Snapshot& snap);

// Render the standard burst-buffer diagnostics table ("where bursts are
// absorbed") from a snapshot holding the "bb.*" metrics: hit rate, coalesce
// ratio, flushed bytes, peak occupancy of `capacity_bytes`, stalls,
// evictions and deferred errors.
DiagTable burst_buffer_table(const obs::Snapshot& snap, std::uint64_t capacity_bytes);

// Render the standard resilience diagnostics table ("how faults were
// absorbed", DESIGN.md §10) from a snapshot: retry.*, the server's deadline
// and degradation counters, bb.degraded_writes and client.*. Subsystems
// missing from the snapshot read as 0.
DiagTable resilience_table(const obs::Snapshot& snap);

// Generic dump of one obs metric snapshot: every counter and gauge as a row
// (sorted by name — one row per metric), every histogram as a
// count/mean/p50/p95/p99/max summary row. Replaces the per-subsystem table
// builders for ad-hoc "show me everything" dumps (ion_daemon SIGUSR1,
// bench footers); the curated tables above remain for figure-style output.
DiagTable metrics_table(const obs::Snapshot& snap, const std::string& title = "metrics");

// Convenience: snapshot the registry, then render.
DiagTable metrics_table(const obs::MetricRegistry& reg, const std::string& title = "metrics");

}  // namespace iofwd::analysis
