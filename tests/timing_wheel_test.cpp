#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
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

TEST(TimingWheel, PoolNeverExceedsPeakPending) {
  // Node storage follows the events pending, not the busiest tick each
  // bucket has held: phases of filling (two pushes per pop) and draining
  // (two pops per push), with bursts on a few ticks and far timers.
  util::Xoshiro256StarStar rng(7);
  TimingWheel wheel;
  std::size_t peak = 0;
  Tick now = 0;
  const auto pop = [&] {
    if (const auto e = wheel.pop_if_at_most(~Tick{0})) now = e->time;
  };
  for (int cycle = 0; cycle < 1000000; ++cycle) {
    const bool filling = ((cycle >> 12) & 1) == 0;
    for (int k = 0; k < (filling ? 2 : 1); ++k) {
      const Tick delay = rng.below(8) == 0 ? rng.below(30000) : 16 * rng.below(16);
      wheel.push(now + delay, 0, static_cast<std::uint32_t>(cycle), 0);
      peak = std::max(peak, wheel.size());
    }
    pop();
    if (!filling) pop();
    ASSERT_LE(wheel.capacity(), peak) << "cycle " << cycle;
  }
  EXPECT_GT(peak, 4000u);
  EXPECT_GT(wheel.capacity(), 0u);
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

/// Property: a slab's use of the wheel — pop up to a window deadline, then
/// push the events handed over at the barrier at or after deadline + 1 —
/// gives the heap's sequence. After every stop the deadline itself is still
/// open for pushes, and after every pop the tick before it is past due.
TEST_P(WheelEquivalence, MatchesHeapUnderWindowDeadlines) {
  util::Xoshiro256StarStar rng(GetParam());
  TimingWheel wheel(256);
  EventQueue heap;
  std::uint32_t next_type = 0;
  const auto push_both = [&](Tick t) {
    wheel.push(t, next_type, next_type, t);
    heap.push(t, next_type, next_type, t);
    ++next_type;
  };
  for (int i = 0; i < 20; ++i) push_both(rng.below(2000));

  Tick deadline = 0;
  std::optional<Tick> last_popped;
  int popped = 0;
  for (int window = 0; window < 3000; ++window) {
    // Mostly short windows; sometimes an idle gap longer than the horizon.
    deadline += rng.below(16) == 0 ? 256 + rng.below(3000) : rng.below(120);
    while (const auto from_wheel = wheel.pop_if_at_most(deadline)) {
      ASSERT_FALSE(heap.empty()) << "window " << window;
      const Event from_heap = heap.pop();
      ASSERT_EQ(from_wheel->time, from_heap.time) << "pop " << popped;
      ASSERT_EQ(from_wheel->type, from_heap.type) << "pop " << popped;
      ASSERT_EQ(from_wheel->a, from_heap.a);
      ASSERT_EQ(from_wheel->b, from_heap.b);
      ASSERT_LE(from_wheel->time, deadline);
      ++popped;
      const Tick now = from_wheel->time;
      last_popped = now;
      // 0.75 new events per event on average, so the run stays bounded.
      const int fanout = static_cast<int>(rng.below(2) + (rng.below(4) == 0 ? 1 : 0));
      for (int k = 0; k < fanout; ++k) {
        push_both(now + (rng.below(10) == 0 ? 300 + rng.below(5000) : rng.below(200)));
      }
    }
    ASSERT_TRUE(heap.empty() || heap.next_time() > deadline) << "window " << window;
    ASSERT_EQ(wheel.size(), heap.size());
    ASSERT_EQ(wheel.next_time(), heap.empty() ? std::nullopt
                                              : std::optional<Tick>(heap.next_time()));
    if (last_popped.has_value() && *last_popped > 0) {
      EXPECT_THROW(wheel.push(*last_popped - 1, 0, 0, 0), std::logic_error)
          << "window " << window;
    }
    // The deadline is not past due after a stop at it.
    EXPECT_NO_THROW(push_both(deadline)) << "window " << window;
    // Barrier handoff: events at or after the next window's first tick.
    const int handed = static_cast<int>(rng.below(8));
    for (int k = 0; k < handed; ++k) {
      push_both(deadline + 1 + (rng.below(4) == 0 ? rng.below(2000) : rng.below(50)));
    }
  }
  EXPECT_GT(popped, 10000);
  while (const auto from_wheel = wheel.pop_if_at_most(~Tick{0})) {
    ASSERT_FALSE(heap.empty());
    const Event from_heap = heap.pop();
    ASSERT_EQ(from_wheel->time, from_heap.time);
    ASSERT_EQ(from_wheel->type, from_heap.type);
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(wheel.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Bucket indices at the edges of the wheel's internal word boundaries and
/// of its ring, for every wheel size large enough to have them.
class WheelBoundaries : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WheelBoundaries, BucketsAtWordAndRingEdges) {
  const std::size_t size = GetParam();
  TimingWheel wheel(size);
  // Buckets 63 and 64 straddle the first word boundary.
  wheel.push(64, 1, 0, 0);
  wheel.push(63, 0, 0, 0);
  EXPECT_EQ(wheel.next_time(), Tick{63});
  EXPECT_FALSE(wheel.pop_if_at_most(62).has_value());
  EXPECT_EQ(wheel.next_time(), Tick{63});
  EXPECT_EQ(wheel.pop_if_at_most(63)->type, 0u);
  EXPECT_EQ(wheel.next_time(), Tick{64});
  EXPECT_EQ(wheel.pop_if_at_most(64)->type, 1u);
  EXPECT_FALSE(wheel.next_time().has_value());

  // Park the cursor in the last word, then fill buckets size - 1 and 0 (and
  // 63, 64 again) one ring later: the scan must wrap to find them.
  const Tick base = size - 8;
  wheel.push(base, 2, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, base);
  const Tick order[] = {size - 1, size, size + 63, size + 64};
  wheel.push(size + 64, 6, 0, 0);
  wheel.push(size + 63, 5, 0, 0);
  wheel.push(size, 4, 0, 0);
  wheel.push(size - 1, 3, 0, 0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wheel.next_time(), order[i]) << "size " << size;
    const auto e = wheel.pop_if_at_most(~Tick{0});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->time, order[i]);
    EXPECT_EQ(e->type, 3 + i);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST_P(WheelBoundaries, LastBucketBeforeTheCursorIsFoundLast) {
  // The latest in-horizon tick, cursor + size - 1, sits one bucket below
  // the cursor's own: a ring scan that starts at the cursor reaches it last,
  // after an earlier event whose bucket is above the cursor's.
  const std::size_t size = GetParam();
  for (const Tick cursor : {Tick{70}, Tick{3 * size + 1}, Tick{5 * size - 1}}) {
    TimingWheel wheel(size);
    wheel.push(cursor, 0, 0, 0);
    EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, cursor);
    wheel.push(cursor + size - 1, 1, 0, 0);
    wheel.push(cursor + size, 2, 0, 0);  // first tick beyond the horizon
    wheel.push(cursor + 5, 3, 0, 0);
    EXPECT_EQ(wheel.next_time(), cursor + 5);
    EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 3u);
    EXPECT_EQ(wheel.next_time(), cursor + size - 1);
    EXPECT_FALSE(wheel.pop_if_at_most(cursor + size - 2).has_value());
    EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 1u);
    EXPECT_EQ(wheel.next_time(), cursor + size);
    EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 2u);
    EXPECT_TRUE(wheel.empty());
  }
}

TEST_P(WheelBoundaries, NextTimeAfterIdleGapLongerThanHorizon) {
  const std::size_t size = GetParam();
  TimingWheel wheel(size);
  wheel.push(10, 0, 0, 0);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->time, 10u);
  const Tick far = 10 + 5 * size + 3;
  wheel.push(far, 1, 0, 0);
  EXPECT_EQ(wheel.next_time(), far);
  // A stop in the gap leaves the far event waiting, and its deadline open.
  const Tick stop = 10 + 2 * size;
  EXPECT_FALSE(wheel.pop_if_at_most(stop).has_value());
  EXPECT_EQ(wheel.next_time(), far);
  wheel.push(stop, 2, 0, 0);
  wheel.push(stop + size + 1, 3, 0, 0);
  EXPECT_EQ(wheel.next_time(), stop);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 2u);
  EXPECT_EQ(wheel.next_time(), stop + size + 1);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 3u);
  EXPECT_EQ(wheel.next_time(), far);
  EXPECT_EQ(wheel.pop_if_at_most(~Tick{0})->type, 1u);
  EXPECT_FALSE(wheel.next_time().has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, WheelBoundaries, ::testing::Values(128, 256, 8192));

}  // namespace
}  // namespace bgl::sim
