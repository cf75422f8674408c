#include "src/harness/resume.hpp"

#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "src/harness/runner.hpp"

namespace bgl::harness {

namespace {

std::string slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw std::runtime_error("resume: cannot open " + path);
  std::string text;
  char buffer[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return text;
}

/// The slot identity key. \x1f (unit separator) cannot appear in the repeat
/// or seed fields and is vanishingly unlikely in a label.
std::string slot_key(const std::string& label, const std::string& repeat,
                     const std::string& seed) {
  return label + '\x1f' + repeat + '\x1f' + seed;
}

std::size_t column_index(const std::vector<std::string>& columns,
                         const std::string& name) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  throw std::runtime_error("resume: input has no '" + name + "' column");
}

}  // namespace

ResumeLog parse_result_csv(const std::string& text) {
  ResumeLog log;
  std::vector<std::string> row;
  std::string cell;
  bool quoted = false;
  bool cell_started = false;
  const auto end_cell = [&] {
    row.push_back(cell);
    cell.clear();
    cell_started = false;
  };
  const auto end_row = [&] {
    end_cell();
    if (log.columns.empty()) {
      log.columns = row;
    } else {
      if (row.size() != log.columns.size()) {
        throw std::runtime_error("resume: CSV row " +
                                 std::to_string(log.rows.size() + 2) + " has " +
                                 std::to_string(row.size()) + " cells, header has " +
                                 std::to_string(log.columns.size()));
      }
      log.rows.push_back(row);
    }
    row.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!cell_started && cell.empty()) {
          quoted = true;
          cell_started = true;
        } else {
          cell += c;  // interior quote in an unquoted cell (writer never
        }             // produces this, but accept it)
        break;
      case ',': end_cell(); break;
      case '\r': break;  // tolerate CRLF
      case '\n': end_row(); break;
      default:
        cell += c;
        cell_started = true;
    }
  }
  if (quoted) throw std::runtime_error("resume: CSV ends inside a quoted cell");
  if (cell_started || !row.empty()) end_row();  // final line without newline
  if (log.columns.empty()) throw std::runtime_error("resume: CSV has no header");
  return log;
}

ResumeLog parse_result_json(const std::string& text) {
  ResumeLog log;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' ||
                               text[i] == '\r' || text[i] == '\t' ||
                               text[i] == ',')) {
      ++i;
    }
  };
  const auto fail = [&](const std::string& what) -> std::runtime_error {
    return std::runtime_error("resume: JSON parse error near offset " +
                              std::to_string(i) + ": " + what);
  };
  const auto parse_string = [&]() -> std::string {
    if (i >= text.size() || text[i] != '"') throw fail("expected string");
    ++i;
    std::string out;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        ++i;
        switch (text[i]) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: out += text[i];
        }
      } else {
        out += text[i];
      }
      ++i;
    }
    if (i >= text.size()) throw fail("unterminated string");
    ++i;  // closing quote
    return out;
  };
  const auto parse_scalar = [&]() -> std::string {
    if (i < text.size() && text[i] == '"') return parse_string();
    std::string out;  // bare number / true / false, kept verbatim
    while (i < text.size() && text[i] != ',' && text[i] != '}' &&
           text[i] != '\n' && text[i] != ' ') {
      out += text[i];
      ++i;
    }
    if (out.empty()) throw fail("expected value");
    return out;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '[') throw fail("expected '['");
  ++i;
  skip_ws();
  while (i < text.size() && text[i] != ']') {
    if (text[i] != '{') throw fail("expected '{'");
    ++i;
    std::vector<std::string> keys;
    std::vector<std::string> cells;
    skip_ws();
    while (i < text.size() && text[i] != '}') {
      keys.push_back(parse_string());
      skip_ws();
      if (i >= text.size() || text[i] != ':') throw fail("expected ':'");
      ++i;
      skip_ws();
      cells.push_back(parse_scalar());
      skip_ws();
    }
    if (i >= text.size()) throw fail("unterminated object");
    ++i;  // '}'
    if (log.columns.empty()) {
      log.columns = keys;
    } else if (keys != log.columns) {
      throw fail("rows disagree on their keys");
    }
    log.rows.push_back(std::move(cells));
    skip_ws();
  }
  if (i >= text.size()) throw fail("unterminated array");
  return log;
}

ResumeLog load_resume_log(const std::string& path) {
  const std::string text = slurp(path);
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return json ? parse_result_json(text) : parse_result_csv(text);
}

void check_resume_columns(const ResumeLog& log) {
  if (log.columns != result_columns(false)) {
    throw std::runtime_error(
        "resume: input columns do not match the per-run result schema "
        "(aggregated --repeats and --host-timing outputs cannot be resumed)");
  }
}

ResumePlan plan_resume(const ResumeLog& log, const Sweep& sweep,
                       const SweepOptions& options) {
  check_resume_columns(log);
  const std::size_t label_col = column_index(log.columns, "label");
  const std::size_t repeat_col = column_index(log.columns, "repeat");
  const std::size_t seed_col = column_index(log.columns, "seed");
  const std::size_t drained_col = column_index(log.columns, "drained");

  std::unordered_map<std::string, const std::vector<std::string>*> by_key;
  for (const auto& row : log.rows) {
    if (row[drained_col] != "1") continue;  // stalled/timed-out rows rerun
    by_key.emplace(slot_key(row[label_col], row[repeat_col], row[seed_col]),
                   &row);
  }

  const auto repeats = static_cast<std::size_t>(options.repeats);
  ResumePlan plan;
  plan.skip.assign(sweep.size() * repeats, false);
  plan.saved.resize(sweep.size() * repeats);
  for (std::size_t point = 0; point < sweep.size(); ++point) {
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
      const std::size_t slot = point * repeats + repeat;
      const std::uint64_t seed = derive_seed(options.base_seed, slot);
      const auto it = by_key.find(slot_key(sweep.jobs()[point].label,
                                           std::to_string(repeat),
                                           std::to_string(seed)));
      if (it == by_key.end()) continue;
      plan.skip[slot] = true;
      plan.saved[slot] = *it->second;
      ++plan.reused;
    }
  }
  return plan;
}

void emit_merged(const std::vector<SimResult>& results, const ResumePlan& plan,
                 int repeats, ResultSink& sink) {
  sink.begin(result_columns(false));
  for (const auto& result : results) {
    const std::size_t slot =
        result.index * static_cast<std::size_t>(repeats) +
        static_cast<std::size_t>(result.repeat);
    if (slot < plan.skip.size() && plan.skip[slot]) {
      sink.row(plan.saved[slot]);
    } else {
      sink.row(result_cells(result, false));
    }
  }
  sink.end();
}

}  // namespace bgl::harness
