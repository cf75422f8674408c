#include "src/sim/event_queue.hpp"

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

TimingWheel::TimingWheel(std::size_t size_pow2) : buckets_(size_pow2), mask_(size_pow2 - 1) {
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
  const Event event{time, next_seq_++, type, a, b};
  if (time - cursor_ < buckets_.size()) {
    buckets_[time & mask_].push_back(event);
    ++count_;
  } else {
    overflow_.push_event(event);
  }
}

std::optional<Tick> TimingWheel::next_time() const noexcept {
  if (count_ > 0) {
    // Bucket events are all earlier than anything in overflow (the overflow
    // heap only holds events at or beyond cursor + size).
    for (Tick t = cursor_;; ++t) {
      const auto& bucket = buckets_[t & mask_];
      const std::size_t pos = (t == cursor_) ? bucket_pos_ : 0;
      if (pos < bucket.size()) return bucket[pos].time;
    }
  }
  if (!overflow_.empty()) return overflow_.next_time();
  return std::nullopt;
}

std::optional<Event> TimingWheel::pop_if_at_most(Tick deadline) {
  while (true) {
    auto& bucket = buckets_[cursor_ & mask_];
    if (bucket_pos_ < bucket.size()) {
      const Event event = bucket[bucket_pos_];
      assert(event.time == cursor_);
      if (event.time > deadline) return std::nullopt;
      ++bucket_pos_;
      --count_;
      if (bucket_pos_ == bucket.size()) {
        bucket.clear();
        bucket_pos_ = 0;
      }
      return event;
    }
    bucket.clear();
    bucket_pos_ = 0;

    // The cursor never passes the deadline: whoever stops here at `deadline`
    // may still push events at any later tick, and they must fire at it.
    if (cursor_ >= deadline) return std::nullopt;
    if (count_ == 0) {
      if (overflow_.empty() || overflow_.next_time() > deadline) return std::nullopt;
      // Jump over the empty span straight to the next overflow event.
      cursor_ = overflow_.next_time();
    } else {
      ++cursor_;
    }
    // Migrate overflow events that fit the horizon *before* any handler can
    // push same-time events directly, keeping (time, seq) order intact.
    while (!overflow_.empty() && overflow_.next_time() - cursor_ < buckets_.size()) {
      const Event event = overflow_.pop();
      buckets_[event.time & mask_].push_back(event);
      ++count_;
    }
  }
}

}  // namespace bgl::sim
