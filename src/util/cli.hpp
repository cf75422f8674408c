// Minimal command-line option parsing shared by benches and examples.
//
// Supports `--flag`, `--key value` and `--key=value` forms. Unknown options
// and malformed values are usage errors (`<program>: error: ...`, exit 2), so
// a typo'd sweep parameter cannot silently run the default experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bgl::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Strict: the whole value must parse as one integer/number, otherwise it
  /// is a usage error naming the option (fail(); "--seed 12x" exits 2, it
  /// does not run seed 12).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int limited to [lo, hi]: a value outside the range is a usage error
  /// naming the option ("--fifos 264" exits 2; it does not wrap to 8 when
  /// the caller narrows it to uint8).
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  /// Comma-separated integers ("8,64,512"), parsed from `fallback` when the
  /// option is absent; a malformed entry is a usage error.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         const std::string& fallback) const;
  /// get_int_list with every entry limited to [lo, hi]: an entry outside the
  /// range is a usage error naming the option ("--sizes 8,-8" exits 2; it
  /// does not wrap to 2^64 - 8 when the caller casts it to uint64).
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         const std::string& fallback,
                                         std::int64_t lo, std::int64_t hi) const;

  /// Positional (non-option) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

  /// Declares an accepted option for `--help` output and typo checking.
  /// Call before `validate()`.
  void describe(const std::string& name, const std::string& help);

  /// Exits with usage text when `--help` given; an unknown option is a usage
  /// error if any were described.
  void validate() const;

  /// Reports a malformed command line: prints "<program>: error: <message>"
  /// on stderr and exits with status 2.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> described_;
};

/// Parses a comma-separated list of integers ("8,64,512"). Throws
/// std::runtime_error naming `what` on non-integer entries.
std::vector<std::int64_t> parse_int_list(const std::string& text,
                                         const std::string& what = "list entry");

/// Strict full-string numeric parsing (the machinery behind get_int /
/// get_double, shared by structured option parsers like --shard and
/// --faults): the whole token must be a single finite number, otherwise a
/// std::runtime_error naming `what` is thrown.
std::int64_t parse_strict_int(const std::string& text, const std::string& what);
double parse_strict_double(const std::string& text, const std::string& what);

}  // namespace bgl::util
