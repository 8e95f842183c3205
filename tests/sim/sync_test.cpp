#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace iofwd::sim {
namespace {

// --------------------------- SimSemaphore ----------------------------------

Proc<void> take_then_log(Engine& eng, SimSemaphore& sem, int id, std::vector<int>& order,
                         SimTime hold) {
  co_await sem.acquire();
  order.push_back(id);
  co_await Delay{eng, hold};
  sem.release();
}

TEST(SimSemaphore, MutualExclusionAndFifo) {
  Engine eng;
  SimSemaphore sem(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) eng.spawn(take_then_log(eng, sem, i, order, 10));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.now(), 40);  // strictly serialized
  EXPECT_EQ(sem.available(), 1);
}

TEST(SimSemaphore, CountAllowsParallelism) {
  Engine eng;
  SimSemaphore sem(eng, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) eng.spawn(take_then_log(eng, sem, i, order, 10));
  eng.run();
  EXPECT_EQ(eng.now(), 20);  // two at a time
}

Proc<void> take_n(SimSemaphore& sem, std::int64_t n, std::vector<std::int64_t>& got) {
  co_await sem.acquire(n);
  got.push_back(n);
  co_return;
}

TEST(SimSemaphore, NoBargePastLargeWaiter) {
  Engine eng;
  SimSemaphore sem(eng, 4);
  std::vector<std::int64_t> got;
  // First a big request that cannot be satisfied, then a small one that
  // could. FIFO fairness demands the small one waits behind the big one.
  eng.spawn(take_n(sem, 10, got));
  eng.spawn(take_n(sem, 1, got));
  eng.run();
  EXPECT_TRUE(got.empty());
  sem.release(6);  // now 10 available
  eng.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{10}));
  sem.release(10);
  eng.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{10, 1}));
}

TEST(SimSemaphore, TryAcquire) {
  Engine eng;
  SimSemaphore sem(eng, 3);
  EXPECT_TRUE(sem.try_acquire(2));
  EXPECT_FALSE(sem.try_acquire(2));
  EXPECT_TRUE(sem.try_acquire(1));
  EXPECT_EQ(sem.available(), 0);
}

TEST(SimSemaphore, TryAcquireRespectsWaiters) {
  Engine eng;
  SimSemaphore sem(eng, 0);
  std::vector<std::int64_t> got;
  eng.spawn(take_n(sem, 1, got));
  eng.run();
  sem.release(1);  // reserved for the waiter immediately
  EXPECT_FALSE(sem.try_acquire(1));
  eng.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{1}));
}

// --------------------------- ScopedSimLock ---------------------------------

Proc<void> scoped_hold(Engine& eng, SimSemaphore& mu, std::vector<int>& order, int id) {
  auto lock = co_await ScopedSimLock::take(mu);
  order.push_back(id);
  co_await Delay{eng, 5};
  // lock released by destructor
}

TEST(ScopedSimLock, ReleasesOnScopeExit) {
  Engine eng;
  SimSemaphore mu(eng, 1);
  std::vector<int> order;
  eng.spawn(scoped_hold(eng, mu, order, 1));
  eng.spawn(scoped_hold(eng, mu, order, 2));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(mu.available(), 1);
}

// ------------------------------ SimEvent -----------------------------------

Proc<void> wait_event(Engine& eng, SimEvent& ev, std::vector<SimTime>& when) {
  co_await ev.wait();
  when.push_back(eng.now());
}

TEST(SimEvent, WakesAllWaiters) {
  Engine eng;
  SimEvent ev(eng);
  std::vector<SimTime> when;
  for (int i = 0; i < 3; ++i) eng.spawn(wait_event(eng, ev, when));
  eng.schedule_at(25, [&] { ev.set(); });
  eng.run();
  EXPECT_EQ(when, (std::vector<SimTime>{25, 25, 25}));
}

TEST(SimEvent, WaitAfterSetIsImmediate) {
  Engine eng;
  SimEvent ev(eng);
  ev.set();
  EXPECT_TRUE(ev.is_set());
  std::vector<SimTime> when;
  eng.spawn(wait_event(eng, ev, when));
  eng.run();
  EXPECT_EQ(when, (std::vector<SimTime>{0}));
}

TEST(SimEvent, DoubleSetIsIdempotent) {
  Engine eng;
  SimEvent ev(eng);
  ev.set();
  EXPECT_NO_THROW(ev.set());
}

// ------------------------------ SimChannel ---------------------------------

Proc<void> consume_all(Engine& eng, SimChannel<int>& ch, std::vector<int>& got) {
  (void)eng;
  while (true) {
    auto v = co_await ch.recv();
    if (!v) break;
    got.push_back(*v);
  }
}

TEST(SimChannel, FifoDelivery) {
  Engine eng;
  SimChannel<int> ch(eng);
  std::vector<int> got;
  eng.spawn(consume_all(eng, ch, got));
  ch.send(1);
  ch.send(2);
  ch.send(3);
  ch.close();
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SimChannel, ReceiverBlocksUntilSend) {
  Engine eng;
  SimChannel<int> ch(eng);
  std::vector<int> got;
  eng.spawn(consume_all(eng, ch, got));
  eng.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(ch.waiting_receivers(), 1u);
  ch.send(7);
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  ch.close();
  eng.run();
}

TEST(SimChannel, MultipleReceiversShareWork) {
  Engine eng;
  SimChannel<int> ch(eng);
  std::vector<int> got_a, got_b;
  eng.spawn(consume_all(eng, ch, got_a));
  eng.spawn(consume_all(eng, ch, got_b));
  eng.run();
  for (int i = 0; i < 10; ++i) ch.send(i);
  ch.close();
  eng.run();
  EXPECT_EQ(got_a.size() + got_b.size(), 10u);
  // FIFO across the union.
  std::vector<int> merged;
  std::merge(got_a.begin(), got_a.end(), got_b.begin(), got_b.end(), std::back_inserter(merged));
  EXPECT_EQ(merged, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SimChannel, TryRecvDoesNotStealReserved) {
  Engine eng;
  SimChannel<int> ch(eng);
  std::vector<int> got;
  eng.spawn(consume_all(eng, ch, got));
  eng.run();              // receiver now suspended
  ch.send(42);            // item reserved for the suspended receiver
  EXPECT_EQ(ch.try_recv(), std::nullopt);
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{42}));
  ch.close();
  eng.run();
}

TEST(SimChannel, TryRecvTakesUnreserved) {
  Engine eng;
  SimChannel<int> ch(eng);
  ch.send(5);
  EXPECT_EQ(ch.try_recv(), 5);
  EXPECT_EQ(ch.try_recv(), std::nullopt);
}

TEST(SimChannel, CloseWakesAllWithNullopt) {
  Engine eng;
  SimChannel<int> ch(eng);
  std::vector<int> got_a, got_b;
  eng.spawn(consume_all(eng, ch, got_a));
  eng.spawn(consume_all(eng, ch, got_b));
  eng.run();
  ch.close();
  eng.run();
  EXPECT_TRUE(got_a.empty());
  EXPECT_TRUE(got_b.empty());
  EXPECT_TRUE(ch.closed());
}

TEST(SimChannel, DrainsQueueBeforeCloseReturnsNull) {
  Engine eng;
  SimChannel<int> ch(eng);
  ch.send(1);
  ch.send(2);
  ch.close();
  std::vector<int> got;
  eng.spawn(consume_all(eng, ch, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

// ------------------------------ when_all -----------------------------------

Proc<void> delayer(Engine& eng, SimTime d) { co_await Delay{eng, d}; }

Proc<void> join_three(Engine& eng, SimTime& done_at) {
  std::vector<Proc<void>> ps;
  ps.push_back(delayer(eng, 10));
  ps.push_back(delayer(eng, 30));
  ps.push_back(delayer(eng, 20));
  co_await when_all(eng, std::move(ps));
  done_at = eng.now();
}

TEST(WhenAll, CompletesAtMaxOfChildren) {
  Engine eng;
  SimTime done_at = -1;
  eng.spawn(join_three(eng, done_at));
  eng.run();
  EXPECT_EQ(done_at, 30);
}

Proc<void> throws_after(Engine& eng, SimTime d) {
  co_await Delay{eng, d};
  throw std::runtime_error("child failed");
}

Proc<void> join_with_failure(Engine& eng, bool& caught, SimTime& done_at) {
  std::vector<Proc<void>> ps;
  ps.push_back(delayer(eng, 50));
  ps.push_back(throws_after(eng, 10));
  try {
    co_await when_all(eng, std::move(ps));
  } catch (const std::runtime_error&) {
    caught = true;
  }
  done_at = eng.now();
}

TEST(WhenAll, ChildExceptionRethrownAfterAllFinish) {
  Engine eng;
  bool caught = false;
  SimTime done_at = -1;
  eng.spawn(join_with_failure(eng, caught, done_at));
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(done_at, 50);  // still waits for the slow child
}

Proc<void> join_empty(Engine& eng, bool& done) {
  co_await when_all(eng, std::vector<Proc<void>>{});
  done = true;
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  Engine eng;
  bool done = false;
  eng.spawn(join_empty(eng, done));
  eng.run();
  EXPECT_TRUE(done);
}

Proc<void> join_pair(Engine& eng, SimTime& done_at) {
  co_await when_all(eng, delayer(eng, 7), delayer(eng, 3));
  done_at = eng.now();
}

TEST(WhenAll, BinaryOverload) {
  Engine eng;
  SimTime done_at = -1;
  eng.spawn(join_pair(eng, done_at));
  eng.run();
  EXPECT_EQ(done_at, 7);
}

}  // namespace
}  // namespace iofwd::sim
