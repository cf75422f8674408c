#include "src/util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace bgl::util {

// std::stoll silently accepts trailing junk ("--seed 12x" used to run with
// seed 12), so numeric options are parsed strictly: the whole token must be
// one finite number or the option is rejected with a clear message.

std::int64_t parse_strict_int(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(what + ": expected an integer, got '" + text + "'");
  }
  return value;
}

double parse_strict_double(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(what + ": expected a number, got '" + text + "'");
  }
  return value;
}

namespace {

// Runs a throwing parse of a command-line value: a malformed value is the
// user's error, reported through Cli::fail.
template <class Parse>
auto parse_or_fail(const Cli& cli, const Parse& parse) {
  try {
    return parse();
  } catch (const std::runtime_error& error) {
    cli.fail(error.what());
  }
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself an option; otherwise a
    // bare flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) != 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return parse_or_fail(*this, [&] { return parse_strict_int(it->second, "option --" + name); });
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const {
  const std::int64_t value = get_int(name, fallback);
  if (value < lo || value > hi) {
    fail("option --" + name + ": must be in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "], got " + std::to_string(value));
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return parse_or_fail(*this,
                       [&] { return parse_strict_double(it->second, "option --" + name); });
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "on" || it->second == "yes") {
    return true;
  }
  return false;
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            const std::string& fallback) const {
  const std::string text = get(name, fallback);
  return parse_or_fail(*this, [&] { return parse_int_list(text, "option --" + name); });
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            const std::string& fallback,
                                            std::int64_t lo, std::int64_t hi) const {
  std::vector<std::int64_t> values = get_int_list(name, fallback);
  for (const std::int64_t value : values) {
    if (value < lo || value > hi) {
      fail("option --" + name + ": entries must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got " + std::to_string(value));
    }
  }
  return values;
}

void Cli::describe(const std::string& name, const std::string& help) {
  described_.emplace_back(name, help);
}

void Cli::validate() const {
  if (has("help")) {
    std::printf("usage: %s [options]\n", program_.c_str());
    for (const auto& [name, help] : described_) {
      std::printf("  --%-20s %s\n", name.c_str(), help.c_str());
    }
    std::exit(0);
  }
  if (described_.empty()) return;
  for (const auto& [key, value] : options_) {
    (void)value;
    bool known = key == "help";
    for (const auto& [name, help] : described_) {
      (void)help;
      if (name == key) {
        known = true;
        break;
      }
    }
    if (!known) fail("unknown option: --" + key);
  }
}

void Cli::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: error: %s\n", program_.c_str(), message.c_str());
  std::exit(2);
}

std::vector<std::int64_t> parse_int_list(const std::string& text, const std::string& what) {
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto comma = text.find(',', pos);
    const auto piece = text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!piece.empty()) out.push_back(parse_strict_int(piece, what));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace bgl::util
