// Strict registry reads for test assertions.
//
// obs::Snapshot::counter() reads a name that was never registered as 0, so a
// renamed or misspelt metric passes every "== 0" check silently. These
// helpers fail the running test instead, naming the missing metric, and then
// return 0 so the assertion that used the value still reports.
//
//   const obs::Snapshot s = server.metrics();
//   EXPECT_EQ(testsupport::counter(s, "server.ops"), 3u);
//   EXPECT_LE(testsupport::gauge(s, "server.bml_high_watermark"), 4096);
//
// A lazily registered metric that a test expects never to have fired is
// checked with absent() rather than read as 0.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace iofwd::testsupport {

inline std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    ADD_FAILURE() << "counter '" << name << "' is not registered";
    return 0;
  }
  return it->second;
}

inline std::int64_t gauge(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    ADD_FAILURE() << "gauge '" << name << "' is not registered";
    return 0;
  }
  return it->second;
}

// True when no counter, gauge or histogram carries `name`.
inline bool absent(const obs::Snapshot& s, const std::string& name) {
  return s.counters.count(name) == 0 && s.gauges.count(name) == 0 &&
         s.histograms.count(name) == 0;
}

}  // namespace iofwd::testsupport
