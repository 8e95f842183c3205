// A thin epoll(7) wrapper: the readiness core of a receiver/send lane.
//
// Each lane owns one EventLoop and registers every connection's readiness fd
// edge-triggered. Read interest maps to EPOLLIN | EPOLLRDHUP, write interest
// to EPOLLOUT (DESIGN.md §15: armed only while a send queue is parked on
// would_block), and both are always EPOLLET. wait() blocks until at least one
// fd fires (or wake()/close() is called) and reports the opaque 64-bit keys
// the caller registered plus the direction(s) that fired — the loop never
// dereferences anything. Edge-triggered means the caller must drain each
// ready stream to would_block before the next edge will fire; that contract
// is documented on ByteStream::read_some/write_some and enforced by the
// lane's drain loops (DESIGN.md §13/§15).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/status.hpp"

namespace iofwd::rt {

// Which readiness direction(s) a registration asks for.
enum class Interest : std::uint8_t { read = 1, write = 2, read_write = 3 };

// One readiness report. EPOLLERR/EPOLLHUP are folded into both directions so
// a drain loop in either direction notices closure promptly.
struct Event {
  std::uint64_t key = 0;
  bool readable = false;
  bool writable = false;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // False if epoll/eventfd creation failed at construction (no fds left);
  // IonServer then refuses streams until a later serve() creates its lanes.
  [[nodiscard]] bool valid() const { return ep_fd_ >= 0 && wake_fd_ >= 0; }

  // Register `fd` edge-triggered; `key` comes back verbatim from wait().
  Status add(int fd, std::uint64_t key, Interest interest = Interest::read);
  // Re-arm an existing registration with a (possibly different) interest set.
  // EPOLL_CTL_MOD re-evaluates readiness, so a condition already true at the
  // time of the call produces an event — no lost edge between a would_block
  // result and arming write interest.
  Status modify(int fd, std::uint64_t key, Interest interest);
  void remove(int fd);

  // Wake a blocked wait() without any fd being ready (used by close() and
  // for shutdown nudges). Safe from any thread.
  void wake();

  // Mark the loop closed and wake it; wait() returns false from then on.
  void close();

  // Blocks until readiness or a wake; appends ready events (possibly none,
  // on a bare wake()). Returns false once the loop is closed.
  bool wait(std::vector<Event>& ready);

 private:
  [[nodiscard]] static std::uint32_t epoll_mask(Interest interest);

  int ep_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; registered with kWakeKey
  std::atomic<bool> closed_{false};

  static constexpr std::uint64_t kWakeKey = ~std::uint64_t{0};
};

}  // namespace iofwd::rt
