// Discrete-event queues for the network simulator.
//
// Two implementations with the same ordering contract — events fire in
// (time, sequence) order, so simultaneous events fire in scheduling order
// and runs are bit-for-bit deterministic:
//
//   EventQueue   binary min-heap; O(log n) push/pop, any time horizon.
//   TimingWheel  cycle-indexed calendar queue; O(1) push/pop for delays
//                within the wheel horizon, falling back to an internal heap
//                for far-future events (client timers, throttle pacing).
//
// The simulator fires ~1-2 events per simulated cycle under load, which is
// exactly the density a per-cycle wheel wants; the wheel is ~3x faster than
// the heap end-to-end and is what every fabric slab runs on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace bgl::sim {

/// Simulation time in processor cycles (700 MHz on BG/L).
using Tick = std::uint64_t;

struct Event {
  Tick time = 0;
  std::uint64_t seq = 0;
  std::uint32_t type = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

/// Binary min-heap on (time, seq). Used as the wheel's overflow store and
/// directly in tests as the ordering reference.
class EventQueue {
 public:
  void push(Tick time, std::uint32_t type, std::uint32_t a, std::uint64_t b);
  void push_event(const Event& event);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Earliest event time; queue must be non-empty.
  Tick next_time() const noexcept { return heap_.front().time; }

  /// Removes and returns the earliest event; queue must be non-empty.
  Event pop();

  /// Total events pushed over the queue's lifetime (for micro-benchmarks).
  std::uint64_t total_pushed() const noexcept { return next_seq_; }

  void clear();

 private:
  static bool later(const Event& x, const Event& y) noexcept {
    if (x.time != y.time) return x.time > y.time;
    return x.seq > y.seq;
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Calendar queue over a power-of-two ring of per-cycle buckets.
///
/// Invariant: bucket[t & mask] holds only events with time == t for
/// t in [cursor, cursor + size); events at or beyond the horizon wait in the
/// overflow heap and migrate into the wheel as the cursor approaches them.
class TimingWheel {
 public:
  explicit TimingWheel(std::size_t size_pow2 = 8192);

  /// Queues an event. A time before the cursor throws std::logic_error; the
  /// cursor is at least the last popped event's time and never past the
  /// deadline of the last pop.
  void push(Tick time, std::uint32_t type, std::uint32_t a, std::uint64_t b);

  bool empty() const noexcept { return count_ == 0 && overflow_.empty(); }
  std::size_t size() const noexcept { return count_ + overflow_.size(); }

  /// Pops the earliest event if its time is <= deadline. The cursor never
  /// moves past `deadline`, so a later push at any tick after it fires on
  /// time.
  std::optional<Event> pop_if_at_most(Tick deadline);

  /// Exact time of the earliest queued event without popping it (scans the
  /// ring from the cursor; O(size) worst case — meant for a multi-slab run's
  /// once-per-window lower-bound computation, not per-event use).
  std::optional<Tick> next_time() const noexcept;

  std::uint64_t total_pushed() const noexcept { return next_seq_; }

 private:
  void advance_to_nonempty();

  std::vector<std::vector<Event>> buckets_;
  std::size_t mask_;
  Tick cursor_ = 0;        // earliest time the wheel can hold
  std::size_t bucket_pos_ = 0;  // next unread index within the current bucket
  std::size_t count_ = 0;  // events stored in buckets
  EventQueue overflow_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace bgl::sim
