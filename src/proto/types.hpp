// Shared types for the simulated I/O-forwarding protocols.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace iofwd::proto {

enum class OpType : std::uint8_t { write, read, open, close, fstat };

[[nodiscard]] constexpr bool is_data_op(OpType t) {
  // Only data operations are staged asynchronously; metadata operations
  // (open/close/stat) remain synchronous (paper Sec. IV).
  return t == OpType::write || t == OpType::read;
}

// Where the ION delivers (or fetches) the payload.
struct SinkTarget {
  enum class Kind : std::uint8_t {
    dev_null,   // executed and discarded on the ION (Fig. 4 benchmark)
    da_memory,  // TCP to a data-analysis node's memory (Figs. 6, 9-12)
    storage,    // GPFS file write/read through the FSNs (Fig. 13)
  };
  Kind kind = Kind::dev_null;
  int da_id = 0;             // for da_memory
  std::uint64_t block = 0;   // for storage: file block index (striping key)
  // Data-stream priority, honored by QueuePolicy::priority (paper Sec. IV:
  // "maintain separate queues based on the priority of data").
  int priority = 0;
};

// Aggregate outcome of a benchmark run, accounted at delivery time.
struct RunMetrics {
  std::uint64_t ops_completed = 0;
  std::uint64_t bytes_delivered = 0;
  sim::SimTime first_delivery = 0;
  sim::SimTime last_delivery = 0;

  void record(std::uint64_t bytes, sim::SimTime now) {
    if (ops_completed == 0) first_delivery = now;
    ++ops_completed;
    bytes_delivered += bytes;
    last_delivery = now;
  }

  // Aggregate delivered throughput in MiB/s over the measured window.
  [[nodiscard]] double throughput_mib_s(sim::SimTime start, sim::SimTime end) const {
    const double secs = sim::to_seconds(end - start);
    if (secs <= 0) return 0;
    return static_cast<double>(bytes_delivered) / (1024.0 * 1024.0) / secs;
  }
};

[[nodiscard]] std::string to_string(OpType t);
[[nodiscard]] std::string to_string(SinkTarget::Kind k);

}  // namespace iofwd::proto
