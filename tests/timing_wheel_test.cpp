#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/event_queue.hpp"
#include "src/util/rng.hpp"

namespace bgl::sim {
namespace {

TEST(TimingWheel, BasicOrdering) {
  TimingWheel wheel;
  wheel.push(30, 0, 0, 0);
  wheel.push(10, 1, 0, 0);
  wheel.push(20, 2, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 10u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 20u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 30u);
  EXPECT_TRUE(wheel.empty());
  EXPECT_FALSE(wheel.pop_if_at_most(~Tick{0}).has_value());
}

TEST(TimingWheel, SameTimeFifoOrder) {
  TimingWheel wheel;
  for (std::uint32_t i = 0; i < 50; ++i) wheel.push(5, i, 0, 0);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto e = wheel.pop_if_at_most(~Tick{0});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->type, i);
  }
}

TEST(TimingWheel, DeadlineRespected) {
  TimingWheel wheel;
  wheel.push(10, 0, 0, 0);
  wheel.push(100, 1, 0, 0);
  EXPECT_TRUE(wheel.pop_if_at_most(50).has_value());
  EXPECT_FALSE(wheel.pop_if_at_most(50).has_value());
  EXPECT_FALSE(wheel.empty());  // the event at 100 is still there
  EXPECT_TRUE(wheel.pop_if_at_most(100).has_value());
}

TEST(TimingWheel, OverflowBeyondHorizon) {
  TimingWheel wheel(64);  // tiny wheel to force the overflow path
  wheel.push(5, 0, 0, 0);
  wheel.push(1000, 1, 0, 0);        // far beyond a 64-slot horizon
  wheel.push(100000, 2, 0, 0);      // much farther
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 5u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 1000u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 100000u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, OverflowMigrationPreservesSameTimeOrder) {
  TimingWheel wheel(16);
  // Event A at t=100 goes to overflow (horizon 16).
  wheel.push(100, /*type=*/0, 0, 0);
  // Drain a filler to advance the cursor close to 100, then push B at 100
  // directly into the wheel. A was scheduled first and must pop first.
  wheel.push(95, 10, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 10u);
  wheel.push(100, /*type=*/1, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 0u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 1u);
}

TEST(TimingWheel, HorizonBoundaryExactlyAtCursorPlusSize) {
  // The wheel window is [cursor, cursor + size): an event at exactly
  // cursor + size must take the overflow path (a bucket insert would alias
  // slot `cursor` and fire a full rotation early).
  TimingWheel wheel(16);
  wheel.push(16, 0, 0, 0);  // first time outside the window
  wheel.push(15, 1, 0, 0);  // last time inside the window
  EXPECT_EQ(wheel.size(), 2u);
  const auto first = wheel.pop_if_at_most(~Tick{0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->time, 15u);
  EXPECT_EQ(first->type, 1u);
  const auto second = wheel.pop_if_at_most(~Tick{0});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->time, 16u);
  EXPECT_EQ(second->type, 0u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, WrapAroundKeepsTimes) {
  // Advance the cursor past the ring size so bucket indices wrap; events on
  // both sides of the wrap point must still fire in time order.
  TimingWheel wheel(16);
  wheel.push(14, 0, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 14u);  // cursor near the edge
  wheel.push(17, 1, 0, 0);  // wraps to slot 1
  wheel.push(15, 2, 0, 0);  // still below the wrap point
  wheel.push(16, 3, 0, 0);  // wraps to slot 0
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 15u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 16u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 17u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, NextTimeOnEmptyWheel) {
  TimingWheel wheel(16);
  EXPECT_FALSE(wheel.next_time().has_value());
}

TEST(TimingWheel, NextTimeSeesBucketsAndOverflow) {
  TimingWheel wheel(16);
  wheel.push(1000, 0, 0, 0);  // overflow only
  EXPECT_EQ(wheel.next_time().value(), 1000u);
  wheel.push(7, 1, 0, 0);  // in-window bucket beats overflow
  EXPECT_EQ(wheel.next_time().value(), 7u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 7u);
  EXPECT_EQ(wheel.next_time().value(), 1000u);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 1000u);
  EXPECT_FALSE(wheel.next_time().has_value());
}

TEST(TimingWheel, NextTimeDoesNotConsume) {
  TimingWheel wheel(16);
  wheel.push(5, 42, 0, 0);
  EXPECT_EQ(wheel.next_time().value(), 5u);
  EXPECT_EQ(wheel.next_time().value(), 5u);  // idempotent
  const auto e = wheel.pop_if_at_most(~Tick{0});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->type, 42u);
}

TEST(TimingWheel, NextTimeSkipsConsumedPrefixOfCurrentBucket) {
  // Partially consumed same-tick bucket: next_time must report the same tick
  // while unread events remain, then move on.
  TimingWheel wheel(16);
  wheel.push(3, 0, 0, 0);
  wheel.push(3, 1, 0, 0);
  wheel.push(9, 2, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 0u);
  EXPECT_EQ(wheel.next_time().value(), 3u);  // one event left at t=3
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 1u);
  EXPECT_EQ(wheel.next_time().value(), 9u);
}

TEST(TimingWheel, PastDuePushThrows) {
  // A push before the cursor is a scheduling bug and throws in every build;
  // the wheel is left as it was.
  TimingWheel wheel;
  wheel.push(50, 0, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 50u);
  EXPECT_THROW(wheel.push(10, 1, 0, 0), std::logic_error);
  EXPECT_TRUE(wheel.empty());
  wheel.push(50, 2, 0, 0);  // "now" is not in the past
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 2u);
}

TEST(TimingWheel, PastDuePushThrowsAfterOverflowJump) {
  // The cursor also advances by jumping to an overflow event; times below
  // that event are past due afterwards.
  TimingWheel wheel(16);
  wheel.push(1000, 0, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 1000u);
  EXPECT_THROW(wheel.push(999, 1, 0, 0), std::logic_error);
}

TEST(TimingWheel, ShortDeadlineKeepsLaterPushesOnTime) {
  // A slab whose only event is a far timer stops at its window deadline d;
  // a boundary handoff pushed at d + 1 afterwards must fire at d + 1, not
  // at the timer's tick. The far event waits in a bucket, then in overflow.
  for (const Tick far : {Tick{900}, Tick{50000}}) {
    TimingWheel wheel(1024);
    wheel.push(far, 0, 0, 0);
    EXPECT_FALSE(wheel.pop_if_at_most(100).has_value());
    wheel.push(101, 1, 0, 0);
    const auto e = wheel.pop_if_at_most(~Tick{0});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->time, 101u) << "far event at " << far;
    EXPECT_EQ(e->type, 1u);
    EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, far);
  }
}

/// Property: the wheel and the reference heap produce the identical event
/// sequence for a random interleaved workload of pushes and pops.
class WheelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WheelEquivalence, MatchesHeapExactly) {
  util::Xoshiro256StarStar rng(GetParam());
  TimingWheel wheel(256);  // small wheel: exercises overflow heavily
  EventQueue heap;

  Tick now = 0;
  // Seed both with the same initial events.
  for (std::uint32_t i = 0; i < 20; ++i) {
    const Tick t = rng.below(2000);
    wheel.push(t, i, 0, 0);
    heap.push(t, i, 0, 0);
  }

  std::uint32_t next_type = 20;
  for (int step = 0; step < 20000; ++step) {
    const auto from_wheel = wheel.pop_if_at_most(~Tick{0});
    if (!from_wheel.has_value()) {
      EXPECT_TRUE(heap.empty());
      break;
    }
    ASSERT_FALSE(heap.empty());
    const Event from_heap = heap.pop();
    EXPECT_EQ(from_wheel->time, from_heap.time) << "step " << step;
    EXPECT_EQ(from_wheel->type, from_heap.type) << "step " << step;
    now = from_wheel->time;

    // Handler-style behavior: schedule 0-2 future events, occasionally far
    // beyond the wheel horizon.
    const int fanout = static_cast<int>(rng.below(3));
    for (int k = 0; k < fanout; ++k) {
      const Tick delay = rng.below(10) == 0 ? 300 + rng.below(5000) : rng.below(200);
      wheel.push(now + delay, next_type, 0, 0);
      heap.push(now + delay, next_type, 0, 0);
      ++next_type;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bgl::sim
