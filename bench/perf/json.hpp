// Minimal streaming JSON writer for the benchmark's result line and report.
// Doubles are written in shortest round-trip form, so a value keeps every
// digit it was measured with; a non-finite double is written as null.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perf {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Starts a member of the enclosing object; the next call writes its value.
  JsonWriter& key(std::string_view name) {
    separate();
    quote(name);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view text) {
    separate();
    quote(text);
    return *this;
  }
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag) {
    separate();
    out_ += flag ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::int64_t number) {
    separate();
    out_ += std::to_string(number);
    return *this;
  }
  JsonWriter& value(std::uint64_t number) {
    separate();
    out_ += std::to_string(number);
    return *this;
  }
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(double number) {
    separate();
    if (!std::isfinite(number)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), number);
    out_.append(buf, result.ptr);
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  // Writes the comma between siblings; a value right after its key needs none.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void quote(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static constexpr char kHex[] = "0123456789abcdef";
            out_ += "\\u00";
            out_ += kHex[(c >> 4) & 0xf];
            out_ += kHex[c & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;  // per open container: no member written yet
  bool after_key_ = false;
};

}  // namespace perf
