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
// exactly the density a per-cycle wheel wants; every fabric slab runs on one.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace bgl::sim {

/// Simulation time in processor cycles (700 MHz on BG/L).
using Tick = std::uint64_t;

struct Event {
  Tick time = 0;
  /// Tie-breaker among same-time events in EventQueue. TimingWheel keeps
  /// its order without storing it and returns 0 here from pop_if_at_most.
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
///
/// Storage grows with the events pending, not with the busiest tick a bucket
/// has held: bucketed events live in one node pool with a LIFO free list,
/// each bucket is a FIFO list of pool indices (so same-tick events pop in
/// push order), and one occupancy bit per bucket lets pops and next_time()
/// skip empty ticks a 64-bit word at a time.
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

  /// Exact time of the earliest queued event without popping it (a bitmap
  /// scan from the cursor, then the overflow heap; meant for a multi-slab
  /// run's once-per-window lower-bound computation, not per-event use).
  std::optional<Tick> next_time() const noexcept;

  std::uint64_t total_pushed() const noexcept { return next_seq_; }

  /// Nodes in the pool: the most events the buckets have held at once.
  std::size_t capacity() const noexcept { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::uint64_t b;
    std::uint32_t a;
    std::uint32_t type;
    std::uint32_t next;  // pool index of the next node in its list, or kNil
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Appends an event at `time` (within the horizon) to its bucket's tail.
  void append(Tick time, std::uint32_t type, std::uint32_t a, std::uint64_t b);
  /// First tick at or after `from` whose bucket holds an event; count_ > 0.
  Tick next_occupied(Tick from) const noexcept;
  /// Moves overflow events that now fall within the horizon into buckets.
  void migrate_overflow();

  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;  // head of the free list
  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> occupied_;  // bit t & mask: bucket t is non-empty
  std::size_t mask_;
  Tick cursor_ = 0;        // earliest time the wheel can hold
  std::size_t count_ = 0;  // events stored in buckets
  EventQueue overflow_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace bgl::sim
