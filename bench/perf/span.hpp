// In-memory span recorder. A span is a named interval of host time with a
// parent (the span open when it began) and counts attached where the work
// happened. Spans are only appended while the benchmark runs and are written
// out once at exit, so recording costs two clock reads and a vector append.
//
// Self time is a span's duration minus the durations of its direct children
// (children never outlive their parent: scopes close in LIFO order).
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/perf/json.hpp"

namespace perf {

struct SpanRecord {
  std::string name;
  int parent = -1;  // index into the recorder's spans, -1 = root
  double begin_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> counts;

  double seconds() const { return end_s - begin_s; }
};

class SpanRecorder {
 public:
  /// Closes its span on destruction. Not copyable: exactly one close per span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, int id) : recorder_(recorder), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { recorder_.close(id_); }

    int id() const { return id_; }
    void count(std::string_view key, double value) {
      recorder_.spans_[static_cast<std::size_t>(id_)].counts.emplace_back(key, value);
    }

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] Scope open(std::string name) {
    SpanRecord span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.begin_s = now();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(id);
    return Scope(*this, id);
  }

  const SpanRecord& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Duration of span `id` not covered by its direct children.
  double self_seconds(int id) const {
    double self = at(id).seconds();
    for (const SpanRecord& s : spans_) {
      if (s.parent == id) self -= s.seconds();
    }
    return self;
  }

  /// Duration of the child of `parent` named `name` (0 when there is none).
  double child_seconds(int parent, std::string_view name) const {
    for (const SpanRecord& s : spans_) {
      if (s.parent == parent && s.name == name) return s.seconds();
    }
    return 0.0;
  }

  /// All spans as a JSON array of {name, parent, begin_s, end_s, self_s,
  /// counts}.
  void write(JsonWriter& out) const {
    out.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out.begin_object();
      out.key("id").value(static_cast<int>(i));
      out.key("name").value(s.name);
      out.key("parent").value(s.parent);
      out.key("begin_s").value(s.begin_s);
      out.key("end_s").value(s.end_s);
      out.key("self_s").value(self_seconds(static_cast<int>(i)));
      out.key("counts").begin_object();
      for (const auto& [key, value] : s.counts) out.key(key).value(value);
      out.end_object();
      out.end_object();
    }
    out.end_array();
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span ids
};

}  // namespace perf
