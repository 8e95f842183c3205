// Descriptor database for asynchronous data staging (paper Sec. IV).
//
// "We maintain a database of open I/O descriptors; for each, we keep a list
//  of completed and in-progress operations and their associated status,
//  including errors. We distinguish the various I/O operations performed on
//  a particular descriptor via a counter. Errors are passed to the
//  application on subsequent operations on the descriptor."
//
// Per descriptor we keep an in-flight window rather than a per-op log: every
// seq below `low` has completed, a done flag covers each seq in
// [low, next_seq), and errors wait in a FIFO in completion order. Every
// operation is O(1) (amortised) in the number of ops the descriptor has seen.
//
// This class is pure bookkeeping — no simulator or thread dependencies — so
// the simulated forwarder (proto/) and the real runtime (rt/) share it
// verbatim. Thread safety is the caller's job (the runtime wraps calls in
// its descriptor-table lock; the simulator is single-threaded).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "core/status.hpp"

namespace iofwd::proto {

class DescriptorDb {
 public:
  // Register a descriptor (on open). Returns false if it already exists.
  bool open_descriptor(int fd);

  // Begin an asynchronous operation; returns its per-descriptor sequence
  // number, or nullopt for an unknown descriptor.
  std::optional<std::uint64_t> begin_op(int fd);

  // Complete a previously begun operation, in any order. Returns false for
  // an unknown descriptor and for a seq that was never issued or has
  // already completed.
  bool complete_op(int fd, std::uint64_t seq, Status status);

  // The deferred-error check performed at the start of every subsequent
  // operation on `fd`: returns (and consumes) the oldest unreported error.
  // ok() if none. Unknown descriptors report bad_descriptor.
  Status consume_pending_error(int fd);

  // Non-consuming peek: true when consume_pending_error(fd) would return an
  // error. Fast-path gates (the burst buffer's pinned reads) use this to
  // miss-and-fall-back so the error still surfaces — and is consumed — on
  // the regular path.
  [[nodiscard]] bool has_pending_error(int fd) const;

  // Close: returns the first pending error (like consume, but also requires
  // all operations to have completed — callers drain first). Removes the
  // descriptor. in_flight(fd) must be 0.
  Status close_descriptor(int fd);

  [[nodiscard]] bool is_open(int fd) const { return table_.contains(fd); }
  [[nodiscard]] std::size_t in_flight(int fd) const;
  [[nodiscard]] std::size_t completed_count(int fd) const;
  [[nodiscard]] std::size_t open_count() const { return table_.size(); }

 private:
  struct Entry {
    std::uint64_t low = 0;              // every seq below this has completed
    std::deque<bool> done;              // done flags for [low, low + done.size())
    std::size_t completed = 0;          // ops completed over the descriptor's life
    std::deque<Status> pending_errors;  // completed-with-error, unreported
    [[nodiscard]] std::uint64_t next_seq() const { return low + done.size(); }
  };
  std::unordered_map<int, Entry> table_;
};

}  // namespace iofwd::proto
