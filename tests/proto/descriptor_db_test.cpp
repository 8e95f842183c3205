#include "proto/descriptor_db.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace iofwd::proto {
namespace {

TEST(DescriptorDb, OpenIsIdempotentlyRejected) {
  DescriptorDb db;
  EXPECT_TRUE(db.open_descriptor(3));
  EXPECT_FALSE(db.open_descriptor(3));
  EXPECT_TRUE(db.is_open(3));
  EXPECT_FALSE(db.is_open(4));
  EXPECT_EQ(db.open_count(), 1u);
}

TEST(DescriptorDb, BeginOpUnknownDescriptor) {
  DescriptorDb db;
  EXPECT_EQ(db.begin_op(9), std::nullopt);
}

TEST(DescriptorDb, SequenceNumbersAreDistinctAndMonotone) {
  // "We distinguish the various I/O operations performed on a particular
  // descriptor via a counter" (Sec. IV).
  DescriptorDb db;
  db.open_descriptor(1);
  auto a = db.begin_op(1);
  auto b = db.begin_op(1);
  auto c = db.begin_op(1);
  ASSERT_TRUE(a && b && c);
  EXPECT_LT(*a, *b);
  EXPECT_LT(*b, *c);
  EXPECT_EQ(db.in_flight(1), 3u);
}

TEST(DescriptorDb, CountersIndependentPerDescriptor) {
  DescriptorDb db;
  db.open_descriptor(1);
  db.open_descriptor(2);
  EXPECT_EQ(db.begin_op(1), 0u);
  EXPECT_EQ(db.begin_op(2), 0u);
  EXPECT_EQ(db.begin_op(1), 1u);
}

TEST(DescriptorDb, CompleteTransitionsInFlight) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto seq = db.begin_op(1);
  EXPECT_EQ(db.in_flight(1), 1u);
  EXPECT_TRUE(db.complete_op(1, *seq, Status::ok()));
  EXPECT_EQ(db.in_flight(1), 0u);
  EXPECT_EQ(db.completed_count(1), 1u);
  // Double-complete and unknown seq are rejected.
  EXPECT_FALSE(db.complete_op(1, *seq, Status::ok()));
  EXPECT_FALSE(db.complete_op(1, 999, Status::ok()));
  EXPECT_FALSE(db.complete_op(7, 0, Status::ok()));
}

TEST(DescriptorDb, ErrorsDeferredToNextOperation) {
  // "Errors are passed to the application on subsequent operations on the
  // descriptor" (Sec. IV).
  DescriptorDb db;
  db.open_descriptor(1);
  auto s1 = db.begin_op(1);
  db.complete_op(1, *s1, Status(Errc::io_error, "write failed"));
  // First check surfaces the error once...
  Status e = db.consume_pending_error(1);
  EXPECT_EQ(e.code(), Errc::io_error);
  // ...and consuming it clears it.
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
}

TEST(DescriptorDb, MultipleErrorsSurfaceInOrder) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto a = db.begin_op(1);
  auto b = db.begin_op(1);
  db.complete_op(1, *a, Status(Errc::io_error, "first"));
  db.complete_op(1, *b, Status(Errc::not_connected, "second"));
  EXPECT_EQ(db.consume_pending_error(1).code(), Errc::io_error);
  EXPECT_EQ(db.consume_pending_error(1).code(), Errc::not_connected);
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
}

TEST(DescriptorDb, ConsumeOnUnknownDescriptor) {
  DescriptorDb db;
  EXPECT_EQ(db.consume_pending_error(4).code(), Errc::bad_descriptor);
}

TEST(DescriptorDb, CloseReportsPendingError) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto s = db.begin_op(1);
  db.complete_op(1, *s, Status(Errc::io_error, "late failure"));
  EXPECT_EQ(db.close_descriptor(1).code(), Errc::io_error);
  EXPECT_FALSE(db.is_open(1));
  EXPECT_EQ(db.close_descriptor(1).code(), Errc::bad_descriptor);
}

TEST(DescriptorDb, CloseCleanDescriptorIsOk) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto s = db.begin_op(1);
  db.complete_op(1, *s, Status::ok());
  EXPECT_TRUE(db.close_descriptor(1).is_ok());
}

TEST(DescriptorDb, ErrorsAndInFlightSurviveLongRuns) {
  DescriptorDb db;
  db.open_descriptor(1);
  for (int i = 0; i < 10; ++i) {
    auto s = db.begin_op(1);
    if (i == 3) {
      db.complete_op(1, *s, Status(Errc::io_error, "bad"));
    } else if (i < 8) {
      db.complete_op(1, *s, Status::ok());
    }  // ops 8, 9 stay in flight
  }
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(db.complete_op(1, *db.begin_op(1), Status::ok()));
  }
  EXPECT_EQ(db.in_flight(1), 2u);
  EXPECT_EQ(db.completed_count(1), 100'008u);
  // The old error is still the first one reported.
  EXPECT_EQ(db.consume_pending_error(1).code(), Errc::io_error);
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
}

TEST(DescriptorDb, LongLivedDescriptorStaysConstantTimePerOp) {
  // A log scanned per completion makes this quadratic (minutes, past the
  // ctest timeout); the in-flight window keeps each op O(1).
  DescriptorDb db;
  db.open_descriptor(1);
  for (int i = 0; i < 1'000'000; ++i) {
    auto s = db.begin_op(1);
    ASSERT_TRUE(s);
    ASSERT_TRUE(db.complete_op(1, *s, Status::ok()));
  }
  EXPECT_EQ(db.in_flight(1), 0u);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 100'000; ++i) seqs.push_back(*db.begin_op(1));
  EXPECT_EQ(db.in_flight(1), 100'000u);
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    ASSERT_TRUE(db.complete_op(1, *it, Status::ok()));
  }
  EXPECT_EQ(db.in_flight(1), 0u);
  EXPECT_EQ(db.completed_count(1), 1'100'000u);
  EXPECT_EQ(db.begin_op(1), 1'100'000u);
}

TEST(DescriptorDb, DuplicateStaleAndUnissuedSeqsAreRejected) {
  DescriptorDb db;
  db.open_descriptor(1);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 4; ++i) seqs.push_back(*db.begin_op(1));
  // Seqs 0 and 1 complete in order, so both fall below the window; seq 3
  // completes ahead of 2 and stays inside it.
  ASSERT_TRUE(db.complete_op(1, seqs[0], Status::ok()));
  ASSERT_TRUE(db.complete_op(1, seqs[1], Status::ok()));
  ASSERT_TRUE(db.complete_op(1, seqs[3], Status::ok()));
  ASSERT_EQ(db.in_flight(1), 1u);
  ASSERT_EQ(db.completed_count(1), 3u);

  const auto unchanged = [&] {
    EXPECT_EQ(db.in_flight(1), 1u);
    EXPECT_EQ(db.completed_count(1), 3u);
    EXPECT_FALSE(db.has_pending_error(1));
  };
  EXPECT_FALSE(db.complete_op(1, seqs[0], Status(Errc::io_error, "stale")));
  unchanged();
  EXPECT_FALSE(db.complete_op(1, seqs[1], Status(Errc::io_error, "stale")));
  unchanged();
  EXPECT_FALSE(db.complete_op(1, seqs[3], Status(Errc::io_error, "duplicate")));
  unchanged();
  EXPECT_FALSE(db.complete_op(1, 4, Status(Errc::io_error, "never issued")));
  unchanged();
  EXPECT_FALSE(db.complete_op(1, ~std::uint64_t{0}, Status(Errc::io_error, "never issued")));
  unchanged();

  EXPECT_TRUE(db.complete_op(1, seqs[2], Status::ok()));
  EXPECT_EQ(db.in_flight(1), 0u);
  EXPECT_EQ(db.completed_count(1), 4u);
  EXPECT_FALSE(db.complete_op(1, seqs[2], Status::ok()));
  EXPECT_EQ(db.completed_count(1), 4u);
}

TEST(DescriptorDb, OutOfOrderErrorsSurfaceInCompletionOrder) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto a = db.begin_op(1);
  auto b = db.begin_op(1);
  auto c = db.begin_op(1);
  auto d = db.begin_op(1);
  // Completion order c, a, d, b; a and c fail, b and d succeed.
  ASSERT_TRUE(db.complete_op(1, *c, Status(Errc::not_connected, "c")));
  ASSERT_TRUE(db.complete_op(1, *a, Status(Errc::io_error, "a")));
  ASSERT_TRUE(db.complete_op(1, *d, Status::ok()));
  EXPECT_EQ(db.in_flight(1), 1u);
  ASSERT_TRUE(db.complete_op(1, *b, Status(Errc::timed_out, "b")));
  EXPECT_EQ(db.in_flight(1), 0u);
  EXPECT_EQ(db.consume_pending_error(1).message(), "c");
  EXPECT_EQ(db.consume_pending_error(1).message(), "a");
  EXPECT_EQ(db.consume_pending_error(1).message(), "b");
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
}

class DescriptorDbMany : public ::testing::TestWithParam<int> {};

TEST_P(DescriptorDbMany, ManyOpsRoundTrip) {
  const int n = GetParam();
  DescriptorDb db;
  db.open_descriptor(0);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < n; ++i) seqs.push_back(*db.begin_op(0));
  EXPECT_EQ(db.in_flight(0), static_cast<std::size_t>(n));
  // Complete out of order (reverse).
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    EXPECT_TRUE(db.complete_op(0, *it, Status::ok()));
  }
  EXPECT_EQ(db.in_flight(0), 0u);
  EXPECT_TRUE(db.close_descriptor(0).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DescriptorDbMany, ::testing::Values(1, 2, 16, 256));

}  // namespace
}  // namespace iofwd::proto
