#include "analysis/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace iofwd::analysis {
namespace {

TEST(FigureReport, StoresAndRetrieves) {
  FigureReport r("figX", "title", "CNs");
  r.add("4", "CIOD", 400.0);
  r.add("4", "ZOID", 440.0);
  r.add("8", "CIOD", 410.0);
  EXPECT_EQ(r.get("4", "CIOD"), 400.0);
  EXPECT_EQ(r.get("4", "ZOID"), 440.0);
  EXPECT_EQ(r.get("9", "CIOD"), std::nullopt);
  EXPECT_EQ(r.get("4", "nope"), std::nullopt);
}

TEST(FigureReport, OverwriteUpdatesCell) {
  FigureReport r("f", "t", "x");
  r.add("1", "s", 1.0);
  r.add("1", "s", 2.0);
  EXPECT_EQ(r.get("1", "s"), 2.0);
}

TEST(FigureReport, RenderContainsSeriesAndExpected) {
  FigureReport r("fig09", "ladder", "CNs");
  r.add("32", "CIOD", 390.8);
  r.add_expected("32", "CIOD", 390.0);
  const std::string out = r.render();
  EXPECT_NE(out.find("fig09"), std::string::npos);
  EXPECT_NE(out.find("CIOD"), std::string::npos);
  EXPECT_NE(out.find("paper:CIOD"), std::string::npos);
  EXPECT_NE(out.find("390.8"), std::string::npos);
}

TEST(FigureReport, RenderWithoutExpectationsOmitsPaperColumns) {
  FigureReport r("f", "t", "x");
  r.add("1", "s", 1.0);
  EXPECT_EQ(r.render().find("paper:"), std::string::npos);
}

TEST(FigureReport, MissingCellsRenderAsDash) {
  FigureReport r("f", "t", "x");
  r.add("1", "a", 1.0);
  r.add("2", "b", 2.0);  // (1,b) and (2,a) missing
  const std::string out = r.render();
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(FigureReport, CsvRoundTrip) {
  FigureReport r("figcsv", "t", "x");
  r.add("1", "s", 42.5);
  r.add_expected("1", "s", 40.0);
  const std::string path = "/tmp/iofwd_report_test.csv";
  ASSERT_TRUE(r.write_csv(path).is_ok());
  std::ifstream f(path);
  std::string header, line;
  std::getline(f, header);
  std::getline(f, line);
  EXPECT_EQ(header, "x,series,measured_MiB/s,paper_MiB/s");
  EXPECT_EQ(line, "1,s,42.5,40");
  std::remove(path.c_str());
}

TEST(FigureReport, CsvToBadPathFails) {
  FigureReport r("f", "t", "x");
  EXPECT_FALSE(r.write_csv("/nonexistent_dir_xyz/file.csv").is_ok());
}

TEST(DiagTable, RowsRenderInInsertionOrderWithNotes) {
  DiagTable t("cache");
  t.add("hits", 12.0, "served locally");
  t.add("misses", "3");
  const std::string out = t.render();
  EXPECT_NE(out.find("cache"), std::string::npos);
  EXPECT_NE(out.find("hits"), std::string::npos);
  EXPECT_NE(out.find("served locally"), std::string::npos);
  EXPECT_LT(out.find("hits"), out.find("misses"));
  EXPECT_EQ(t.get("hits"), "12.00");
  EXPECT_EQ(t.get("nope"), std::nullopt);
}

TEST(DiagTable, NoteColumnOmittedWhenUnused) {
  DiagTable t("plain");
  t.add("a", 1.0);
  EXPECT_EQ(t.render().find("note"), std::string::npos);
}

TEST(DiagTable, BurstBufferTableShowsTheHeadlineStats) {
  obs::MetricRegistry reg;
  reg.counter("bb.read_bytes").add(100);
  reg.counter("bb.read_hit_bytes").add(95);
  reg.counter("bb.writes_in").add(64);
  reg.counter("bb.backend_writes").add(4);
  reg.counter("bb.flushed_bytes").add(32ull << 20);
  reg.gauge("bb.cached_high_watermark").set(48ll << 20);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(bb_hit_rate(snap), 0.95);
  EXPECT_DOUBLE_EQ(bb_coalesce_ratio(snap), 16.0);
  const auto t = burst_buffer_table(snap, 64ull << 20);
  const std::string out = t.render();
  EXPECT_NE(out.find("burst-buffer"), std::string::npos);
  EXPECT_NE(out.find("95%"), std::string::npos) << out;
  EXPECT_NE(out.find("16.00"), std::string::npos) << out;
  EXPECT_NE(out.find("32.0 MiB"), std::string::npos) << out;
  EXPECT_NE(out.find("75%"), std::string::npos) << out;  // 48/64 occupancy
}

TEST(DiagTable, BurstBufferRatiosWithoutTraffic) {
  obs::MetricRegistry reg;
  reg.counter("bb.writes_in").add(3);  // staged, nothing flushed or read yet
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(bb_hit_rate(snap), 0.0);
  EXPECT_DOUBLE_EQ(bb_coalesce_ratio(snap), 3.0);
}

TEST(DiagTable, ResilienceTableReadsRegistryNames) {
  obs::MetricRegistry reg;
  reg.counter("retry.retries").add(7);
  reg.counter("server.degraded_enters").add(2);
  reg.counter("server.degraded_ns").add(3'000'000);
  reg.counter("client.reconnects").add(5);
  const auto t = resilience_table(reg.snapshot());
  EXPECT_EQ(t.get("retries"), "7.00");
  EXPECT_EQ(t.get("degraded spans"), "2.00");
  EXPECT_EQ(t.get("reconnects"), "5.00");
  EXPECT_EQ(t.get("retry giveups"), "0.00");
  EXPECT_NE(t.render().find("3.00 ms total"), std::string::npos) << t.render();
}

}  // namespace
}  // namespace iofwd::analysis
