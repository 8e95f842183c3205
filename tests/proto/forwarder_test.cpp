#include "proto/forwarder.hpp"

#include <gtest/gtest.h>

#include "bgp/machine.hpp"
#include "core/units.hpp"
#include "proto/queue_forwarder.hpp"
#include "proto/thread_forwarder.hpp"
#include "sim/sync.hpp"

namespace iofwd::proto {
namespace {

struct Fixture {
  sim::Engine eng;
  bgp::Machine machine;
  RunMetrics metrics;

  explicit Fixture(bgp::MachineConfig cfg = bgp::MachineConfig::intrepid())
      : machine(eng, cfg) {}

  std::unique_ptr<Forwarder> make(Mechanism m, ForwarderConfig fc = {}) {
    return make_forwarder(m, machine, machine.pset(0), metrics, std::move(fc));
  }
};

const Mechanism kAll[] = {Mechanism::ciod, Mechanism::zoid, Mechanism::zoid_sched,
                          Mechanism::zoid_sched_async};

sim::Proc<void> one_write(Forwarder& f, std::uint64_t bytes, Status& out, SinkTarget sink = {}) {
  out = co_await f.write(0, -1, bytes, sink);
}

class ForwarderMechanism : public ::testing::TestWithParam<Mechanism> {};

TEST_P(ForwarderMechanism, SingleWriteDeliversAllBytes) {
  Fixture fx;
  auto f = fx.make(GetParam());
  Status st(Errc::internal, "not run");
  SinkTarget da;
  da.kind = SinkTarget::Kind::da_memory;
  fx.eng.spawn(one_write(*f, 1_MiB, st, da));
  fx.eng.run();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(fx.metrics.bytes_delivered, 1_MiB);
  EXPECT_GE(fx.metrics.ops_completed, 1u);
  EXPECT_GT(fx.metrics.last_delivery, 0);
}

TEST_P(ForwarderMechanism, WriteToUnknownFdFails) {
  Fixture fx;
  auto f = fx.make(GetParam());
  Status st;
  fx.eng.spawn([](Forwarder& fw, Status& out) -> sim::Proc<void> {
    out = co_await fw.write(0, /*fd=*/42, 4096, SinkTarget{});
  }(*f, st));
  fx.eng.run();
  EXPECT_EQ(st.code(), Errc::bad_descriptor);
}

TEST_P(ForwarderMechanism, OpenWriteCloseLifecycle) {
  Fixture fx;
  auto f = fx.make(GetParam());
  Status o, w, c;
  fx.eng.spawn([](Forwarder& fw, Status& so, Status& sw, Status& sc) -> sim::Proc<void> {
    so = co_await fw.open(0, 7);
    sw = co_await fw.write(0, 7, 64_KiB, SinkTarget{});
    sc = co_await fw.close(0, 7);
  }(*f, o, w, c));
  fx.eng.run();
  EXPECT_TRUE(o.is_ok());
  EXPECT_TRUE(w.is_ok());
  EXPECT_TRUE(c.is_ok()) << c.to_string();
  EXPECT_FALSE(f->descriptors().is_open(7));
}

TEST_P(ForwarderMechanism, DoubleOpenRejected) {
  Fixture fx;
  auto f = fx.make(GetParam());
  Status a, b;
  fx.eng.spawn([](Forwarder& fw, Status& sa, Status& sb) -> sim::Proc<void> {
    sa = co_await fw.open(0, 1);
    sb = co_await fw.open(0, 1);
  }(*f, a, b));
  fx.eng.run();
  EXPECT_TRUE(a.is_ok());
  EXPECT_EQ(b.code(), Errc::invalid_argument);
}

TEST_P(ForwarderMechanism, ReadDeliversBytes) {
  Fixture fx;
  auto f = fx.make(GetParam());
  Status st(Errc::internal, "not run");
  fx.eng.spawn([](Forwarder& fw, Status& out) -> sim::Proc<void> {
    SinkTarget src;
    src.kind = SinkTarget::Kind::storage;
    out = co_await fw.read(0, -1, 1_MiB, src);
  }(*f, st));
  fx.eng.run();
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(fx.metrics.bytes_delivered, 1_MiB);
}

TEST_P(ForwarderMechanism, FstatSynchronousAndDeferredErrors) {
  Fixture fx;
  ForwarderConfig fc;
  int fail_once = 1;
  fc.fault_hook = [&](int, std::uint64_t) {
    return fail_once-- > 0 ? Status(Errc::io_error, "injected") : Status::ok();
  };
  auto f = fx.make(GetParam(), fc);
  Status unknown, st_clean, st_after;
  const bool async = GetParam() == Mechanism::zoid_sched_async;
  fx.eng.spawn([](Forwarder& fw, Status& s_unknown, Status& s_clean, Status& s_after,
                  bool is_async) -> sim::Proc<void> {
    s_unknown = co_await fw.fstat(0, 9);  // never opened
    (void)co_await fw.open(0, 5);
    s_clean = co_await fw.fstat(0, 5);
    (void)co_await fw.write(0, 5, 4096, SinkTarget{});  // fails at delivery
    co_await fw.drain();
    // fstat drains and surfaces the deferred failure in async mode; in the
    // sync mechanisms the write itself reported it, so fstat stays clean.
    s_after = co_await fw.fstat(0, 5);
    (void)is_async;
    (void)co_await fw.close(0, 5);
  }(*f, unknown, st_clean, st_after, async));
  fx.eng.run();
  EXPECT_EQ(unknown.code(), Errc::bad_descriptor);
  EXPECT_TRUE(st_clean.is_ok());
  if (async) {
    EXPECT_EQ(st_after.code(), Errc::io_error);
  } else {
    EXPECT_TRUE(st_after.is_ok());
  }
}

TEST_P(ForwarderMechanism, FaultHookPropagatesOnSyncPaths) {
  Fixture fx;
  ForwarderConfig fc;
  fc.fault_hook = [](int, std::uint64_t) { return Status(Errc::io_error, "injected"); };
  auto f = fx.make(GetParam(), fc);
  Status st;
  const bool async = GetParam() == Mechanism::zoid_sched_async;
  fx.eng.spawn(one_write(*f, 4096, st));
  fx.eng.run();
  if (async) {
    // fd = -1: no descriptor tracking; async write reports staging success.
    EXPECT_TRUE(st.is_ok());
  } else {
    EXPECT_EQ(st.code(), Errc::io_error);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, ForwarderMechanism, ::testing::ValuesIn(kAll),
                         [](const auto& pinfo) {
                           std::string s = to_string(pinfo.param);
                           for (auto& ch : s) {
                             if (ch == '+') ch = '_';
                           }
                           return s;
                         });

// ---------------------------------------------------------------------------
// Async staging specifics
// ---------------------------------------------------------------------------

TEST(AsyncStaging, DeferredErrorSurfacesOnNextOp) {
  Fixture fx;
  ForwarderConfig fc;
  int fails_left = 4;  // 1 MiB = 4 chunk deliveries; fail them all
  fc.fault_hook = [&](int, std::uint64_t) {
    if (fails_left > 0) {
      --fails_left;
      return Status(Errc::io_error, "injected");
    }
    return Status::ok();
  };
  auto f = fx.make(Mechanism::zoid_sched_async, fc);
  Status w1, w2, w3;
  fx.eng.spawn([](Forwarder& fw, Status& a, Status& b, Status& c) -> sim::Proc<void> {
    (void)co_await fw.open(0, 5);
    a = co_await fw.write(0, 5, 1_MiB, SinkTarget{});  // will fail in background
    co_await fw.drain();
    b = co_await fw.write(0, 5, 4096, SinkTarget{});   // surfaces deferred error
    co_await fw.drain();
    c = co_await fw.write(0, 5, 4096, SinkTarget{});   // error consumed; clean again...
  }(*f, w1, w2, w3));
  fx.eng.run();
  EXPECT_TRUE(w1.is_ok()) << "async write reports staging success";
  EXPECT_EQ(w2.code(), Errc::io_error) << "deferred error expected";
}

TEST(AsyncStaging, CloseReportsDeferredError) {
  Fixture fx;
  ForwarderConfig fc;
  fc.fault_hook = [](int, std::uint64_t) { return Status(Errc::io_error, "injected"); };
  auto f = fx.make(Mechanism::zoid_sched_async, fc);
  Status w, c;
  fx.eng.spawn([](Forwarder& fw, Status& sw, Status& sc) -> sim::Proc<void> {
    (void)co_await fw.open(0, 5);
    sw = co_await fw.write(0, 5, 4096, SinkTarget{});
    sc = co_await fw.close(0, 5);  // close drains, then reports the failure
  }(*f, w, c));
  fx.eng.run();
  EXPECT_TRUE(w.is_ok());
  EXPECT_EQ(c.code(), Errc::io_error);
}

TEST(AsyncStaging, ReturnsBeforeDelivery) {
  // The application is unblocked after staging; delivery happens later.
  Fixture fx;
  auto f = fx.make(Mechanism::zoid_sched_async);
  sim::SimTime returned_at = -1;
  fx.eng.spawn([](Forwarder& fw, sim::Engine& eng, sim::SimTime& t) -> sim::Proc<void> {
    SinkTarget da;
    da.kind = SinkTarget::Kind::da_memory;
    (void)co_await fw.write(0, -1, 1_MiB, da);
    t = eng.now();
    co_await fw.drain();
  }(*f, fx.eng, returned_at));
  fx.eng.run();
  ASSERT_GT(returned_at, 0);
  EXPECT_GT(fx.metrics.last_delivery, returned_at)
      << "delivery must finish after the app was unblocked";
}

TEST(AsyncStaging, BmlExhaustionBlocksStaging) {
  Fixture fx;
  ForwarderConfig fc;
  fc.bml_bytes = 512 * 1024;  // two 256 KiB chunks only
  auto f = fx.make(Mechanism::zoid_sched_async, fc);
  Status st;
  fx.eng.spawn([](Forwarder& fw, Status& out) -> sim::Proc<void> {
    SinkTarget da;
    da.kind = SinkTarget::Kind::da_memory;
    for (int i = 0; i < 8; ++i) {
      out = co_await fw.write(0, -1, 1_MiB, da);
    }
    co_await fw.drain();
  }(*f, st));
  fx.eng.run();
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(fx.metrics.bytes_delivered, 8_MiB);
  auto* qf = dynamic_cast<QueueForwarder*>(f.get());
  ASSERT_NE(qf, nullptr);
  EXPECT_GT(qf->bml().blocked_acquires(), 0u) << "staging must have blocked on the pool";
  EXPECT_EQ(qf->bml().in_use(), 0u);
}

TEST(SyncMechanisms, IonMemoryBlocksLargeTransfers) {
  // "For large transfers, both CIOD and ZOID block the I/O operation till
  // sufficient memory is present on the I/O Node" (Sec. IV).
  auto cfg = bgp::MachineConfig::intrepid();
  cfg.ion_memory_bytes = 1_MiB;  // tiny ION memory
  Fixture fx(cfg);
  auto f = fx.make(Mechanism::zoid);
  std::vector<Status> st(4);
  for (int i = 0; i < 4; ++i) {
    fx.eng.spawn([](Forwarder& fw, Status& out, int cn) -> sim::Proc<void> {
      out = co_await fw.write(cn, -1, 1_MiB, SinkTarget{});
    }(*f, st[i], i));
  }
  fx.eng.run();
  for (const auto& s : st) EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(fx.metrics.bytes_delivered, 4_MiB);
  EXPECT_GT(f->stats().memory_blocked, 0u);
}

// ---------------------------------------------------------------------------
// Work-queue mechanics
// ---------------------------------------------------------------------------

TEST(QueueForwarder, WorkersBatchTasks) {
  Fixture fx;
  ForwarderConfig fc;
  fc.workers = 2;
  fc.multiplex_depth = 8;
  auto f = fx.make(Mechanism::zoid_sched_async, fc);
  std::vector<Status> st(16);
  for (int i = 0; i < 16; ++i) {
    fx.eng.spawn([](Forwarder& fw, Status& out, int cn) -> sim::Proc<void> {
      SinkTarget da;
      da.kind = SinkTarget::Kind::da_memory;
      out = co_await fw.write(cn, -1, 1_MiB, da);
      co_await fw.drain();
    }(*f, st[i], i));
  }
  fx.eng.run();
  const auto& s = f->stats();
  EXPECT_EQ(s.worker_tasks, 64u);  // 16 ops x 4 chunks
  EXPECT_LT(s.worker_batches, s.worker_tasks) << "multiplexing must batch";
  EXPECT_GT(s.avg_batch(), 1.0);
}

TEST(QueueForwarder, ShutdownStopsWorkers) {
  Fixture fx;
  auto f = fx.make(Mechanism::zoid_sched);
  Status st;
  fx.eng.spawn(one_write(*f, 4096, st));
  fx.eng.run();
  f->shutdown();
  fx.eng.run();
  EXPECT_TRUE(st.is_ok());
  // Idempotent.
  EXPECT_NO_THROW(f->shutdown());
}

TEST(QueueForwarder, DrainWithNothingOutstandingReturnsImmediately) {
  Fixture fx;
  auto f = fx.make(Mechanism::zoid_sched_async);
  bool drained = false;
  fx.eng.spawn([](Forwarder& fw, bool& d) -> sim::Proc<void> {
    co_await fw.drain();
    d = true;
  }(*f, drained));
  fx.eng.run();
  EXPECT_TRUE(drained);
}

class WorkerCount : public ::testing::TestWithParam<int> {};

TEST_P(WorkerCount, AllWorkDeliveredRegardlessOfPoolSize) {
  Fixture fx;
  ForwarderConfig fc;
  fc.workers = GetParam();
  auto f = fx.make(Mechanism::zoid_sched_async, fc);
  std::vector<Status> st(8);
  for (int i = 0; i < 8; ++i) {
    fx.eng.spawn([](Forwarder& fw, Status& out, int cn) -> sim::Proc<void> {
      SinkTarget da;
      da.kind = SinkTarget::Kind::da_memory;
      out = co_await fw.write(cn, -1, 1_MiB, da);
      co_await fw.drain();
    }(*f, st[i], i));
  }
  fx.eng.run();
  EXPECT_EQ(fx.metrics.bytes_delivered, 8_MiB);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkerCount, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace iofwd::proto
