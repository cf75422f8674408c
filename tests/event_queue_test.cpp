#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.hpp"

namespace bgl::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30, 0, 0, 0);
  q.push(10, 1, 0, 0);
  q.push(20, 2, 0, 0);
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 20u);
  EXPECT_EQ(q.pop().time, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 100; ++i) q.push(42, i, 0, 0);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 42u);
    EXPECT_EQ(e.type, i) << "same-time events must fire in scheduling order";
  }
}

TEST(EventQueue, RandomizedHeapProperty) {
  util::Xoshiro256StarStar rng(7);
  EventQueue q;
  std::vector<Tick> times;
  for (int i = 0; i < 10000; ++i) {
    const Tick t = rng.below(1000);
    times.push_back(t);
    q.push(t, 0, 0, 0);
  }
  std::sort(times.begin(), times.end());
  for (const Tick expected : times) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().time, expected);
  }
}

TEST(EventQueue, InterleavedPushPop) {
  util::Xoshiro256StarStar rng(11);
  EventQueue q;
  Tick last = 0;
  q.push(0, 0, 0, 0);
  for (int i = 0; i < 5000; ++i) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    // Schedule 0-2 future events relative to the popped one.
    const int fanout = static_cast<int>(rng.below(3));
    for (int k = 0; k < fanout && q.size() < 64; ++k) {
      q.push(last + rng.below(50), 0, 0, 0);
    }
    if (q.empty()) q.push(last + 1, 0, 0, 0);
  }
}

}  // namespace
}  // namespace bgl::sim
