#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace bgl::sim {

void EventQueue::push(Tick time, std::uint32_t type, std::uint32_t a, std::uint64_t b) {
  heap_.push_back(Event{time, next_seq_++, type, a, b});
  sift_up(heap_.size() - 1);
}

void EventQueue::push_event(const Event& event) {
  heap_.push_back(event);
  next_seq_ = std::max(next_seq_, event.seq + 1);
  sift_up(heap_.size() - 1);
}

Event EventQueue::pop() {
  Event out = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  next_seq_ = 0;
}

void EventQueue::sift_up(std::size_t i) noexcept {
  Event e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  Event e = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && later(heap_[child], heap_[child + 1])) ++child;
    if (!later(e, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

TimingWheel::TimingWheel(std::size_t size_pow2)
    : buckets_(size_pow2), occupied_((size_pow2 + 63) / 64), mask_(size_pow2 - 1) {
  assert((size_pow2 & mask_) == 0 && "wheel size must be a power of two");
}

void TimingWheel::push(Tick time, std::uint32_t type, std::uint32_t a, std::uint64_t b) {
  // Scheduling into the past is a bug: the event would have to fire late and
  // silently reorder against already-queued events. It fails loudly in every
  // build.
  if (time < cursor_) {
    throw std::logic_error("TimingWheel::push into the past: type=" + std::to_string(type) +
                           " at=" + std::to_string(time) +
                           " cursor=" + std::to_string(cursor_));
  }
  const std::uint64_t seq = next_seq_++;
  if (time - cursor_ < buckets_.size()) {
    append(time, type, a, b);
  } else {
    overflow_.push_event(Event{time, seq, type, a, b});
  }
}

void TimingWheel::append(Tick time, std::uint32_t type, std::uint32_t a, std::uint64_t b) {
  std::uint32_t node = free_;
  if (node == kNil) {
    if (pool_.size() == kNil) {
      throw std::length_error("TimingWheel: more than 2^32 - 1 events in buckets");
    }
    node = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    free_ = pool_[node].next;
  }
  pool_[node] = Node{b, a, type, kNil};
  const std::size_t slot = time & mask_;
  Bucket& bucket = buckets_[slot];
  if (bucket.head == kNil) {
    bucket.head = node;
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  } else {
    pool_[bucket.tail].next = node;
  }
  bucket.tail = node;
  ++count_;
}

Tick TimingWheel::next_occupied(Tick from) const noexcept {
  assert(count_ > 0);
  const std::size_t start = from & mask_;
  const std::size_t last_word = occupied_.size() - 1;  // word count is a power of two
  std::size_t word = start >> 6;
  // Bits of the start word below `start` are a full rotation ahead; they are
  // seen only when the scan wraps back to this word.
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  while (bits == 0) {
    word = (word + 1) & last_word;
    bits = occupied_[word];
  }
  const std::size_t slot = (word << 6) | static_cast<std::size_t>(std::countr_zero(bits));
  return from + ((slot - start) & mask_);
}

std::optional<Tick> TimingWheel::next_time() const noexcept {
  // Bucket events are all earlier than anything in overflow (the overflow
  // heap only holds events at or beyond cursor + size).
  if (count_ > 0) return next_occupied(cursor_);
  if (!overflow_.empty()) return overflow_.next_time();
  return std::nullopt;
}

std::optional<Event> TimingWheel::pop_if_at_most(Tick deadline) {
  while (true) {
    const std::size_t slot = cursor_ & mask_;
    Bucket& bucket = buckets_[slot];
    if (bucket.head != kNil) {
      if (cursor_ > deadline) return std::nullopt;
      const std::uint32_t node = bucket.head;
      Node& n = pool_[node];
      const Event event{cursor_, 0, n.type, n.a, n.b};
      bucket.head = n.next;
      if (bucket.head == kNil) occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      n.next = free_;
      free_ = node;
      --count_;
      return event;
    }

    // The cursor never passes the deadline: whoever stops here at `deadline`
    // may still push events at any later tick, and they must fire at it.
    if (cursor_ >= deadline) return std::nullopt;
    if (count_ > 0) {
      // Skip the empty ticks a one-tick-at-a-time walk would visit.
      cursor_ = std::min(next_occupied(cursor_), deadline);
    } else {
      if (overflow_.empty() || overflow_.next_time() > deadline) return std::nullopt;
      // Jump over the empty span straight to the next overflow event.
      cursor_ = overflow_.next_time();
    }
    migrate_overflow();
  }
}

void TimingWheel::migrate_overflow() {
  // Runs after every cursor move, *before* any handler can push same-time
  // events directly. Every overflow event lies at or beyond the old cursor
  // + size, past every bucketed event, so (time, seq) order stays intact.
  while (!overflow_.empty() && overflow_.next_time() - cursor_ < buckets_.size()) {
    const Event event = overflow_.pop();
    append(event.time, event.type, event.a, event.b);
  }
}

}  // namespace bgl::sim
