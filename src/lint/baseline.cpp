#include "lint/baseline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/json_text.hpp"
#include "lint/report.hpp"

namespace cwsp::lint {
namespace {

constexpr const char* kSchema = "cwsp-lint-baseline-v1";

/// Parse failures must always fail, baseline or not.
bool baselinable(const Diagnostic& d) { return d.rule_id != "parse-error"; }

std::string sorted_names(const Diagnostic& d) {
  std::vector<std::string> names;
  names.reserve(d.net_names.size() + d.gate_names.size() +
                d.ff_names.size());
  names.insert(names.end(), d.net_names.begin(), d.net_names.end());
  names.insert(names.end(), d.gate_names.begin(), d.gate_names.end());
  names.insert(names.end(), d.ff_names.begin(), d.ff_names.end());
  std::sort(names.begin(), names.end());
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ',';
    out += names[i];
  }
  return out;
}

// ------------------------------------------------- minimal JSON reader
// The baseline schema is a fixed shape ({"schema":..., "entries":[{"key":
// string, "count": integer}]}), so a small recursive-descent reader over
// exactly that subset keeps this library free of a JSON dependency. It
// accepts arbitrary whitespace and the escapes json_text::escape produces.

struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] bool at(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }
  void expect(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) {
      throw Error(std::string("baseline: expected '") + c + "' at offset " +
                  std::to_string(pos));
    }
    ++pos;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) break;
        const char e = text[pos++];
        switch (e) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          default:
            throw Error(std::string("baseline: unsupported escape '\\") + e +
                        "'");
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }
  std::size_t parse_count() {
    skip_ws();
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
      throw Error("baseline: expected integer at offset " +
                  std::to_string(pos));
    }
    std::size_t value = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + static_cast<std::size_t>(text[pos] - '0');
      ++pos;
    }
    return value;
  }
};

}  // namespace

std::string baseline_key(const std::string& design,
                         const Diagnostic& diagnostic) {
  return design + "|" + diagnostic.rule_id + "|" + sorted_names(diagnostic);
}

std::string format_baseline(const LintReport& report) {
  std::map<std::string, std::size_t> counts;
  for (const Diagnostic& d : report.diagnostics) {
    if (!baselinable(d)) continue;
    ++counts[baseline_key(report.design, d)];
  }
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kSchema << "\",\n  \"entries\": [";
  bool first = true;
  for (const auto& [key, count] : counts) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"key\": \"" << json_text::escape(key)
       << "\", \"count\": " << count << "}";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

Baseline parse_baseline(const std::string& text) {
  Cursor cur{text};
  cur.expect('{');

  Baseline baseline;
  bool schema_seen = false;
  bool first_member = true;
  while (!cur.at('}')) {
    if (!first_member) cur.expect(',');
    first_member = false;
    const std::string member = cur.parse_string();
    cur.expect(':');
    if (member == "schema") {
      const std::string schema = cur.parse_string();
      if (schema != kSchema) {
        throw Error("baseline: unknown schema '" + schema + "'");
      }
      schema_seen = true;
    } else if (member == "entries") {
      cur.expect('[');
      bool first_entry = true;
      while (!cur.at(']')) {
        if (!first_entry) cur.expect(',');
        first_entry = false;
        cur.expect('{');
        Baseline::Entry entry;
        bool first_field = true;
        while (!cur.at('}')) {
          if (!first_field) cur.expect(',');
          first_field = false;
          const std::string field = cur.parse_string();
          cur.expect(':');
          if (field == "key") {
            entry.key = cur.parse_string();
          } else if (field == "count") {
            entry.count = cur.parse_count();
          } else {
            throw Error("baseline: unknown entry field '" + field + "'");
          }
        }
        cur.expect('}');
        baseline.entries.push_back(std::move(entry));
      }
      cur.expect(']');
    } else {
      throw Error("baseline: unknown member '" + member + "'");
    }
  }
  cur.expect('}');
  if (!schema_seen) throw Error("baseline: missing schema");

  std::sort(baseline.entries.begin(), baseline.entries.end(),
            [](const Baseline::Entry& a, const Baseline::Entry& b) {
              return a.key < b.key;
            });
  for (std::size_t i = 1; i < baseline.entries.size(); ++i) {
    if (baseline.entries[i].key == baseline.entries[i - 1].key) {
      throw Error("baseline: duplicate key '" + baseline.entries[i].key +
                  "'");
    }
  }
  return baseline;
}

std::size_t apply_baseline(LintReport& report, const Baseline& baseline) {
  std::map<std::string, std::size_t> budget;
  for (const Baseline::Entry& entry : baseline.entries) {
    budget[entry.key] = entry.count;
  }

  std::vector<Diagnostic> kept;
  kept.reserve(report.diagnostics.size());
  std::size_t suppressed = 0;
  for (Diagnostic& d : report.diagnostics) {
    if (baselinable(d)) {
      const auto it = budget.find(baseline_key(report.design, d));
      if (it != budget.end() && it->second > 0) {
        --it->second;
        ++suppressed;
        continue;
      }
    }
    kept.push_back(std::move(d));
  }
  report.diagnostics = std::move(kept);
  return suppressed;
}

}  // namespace cwsp::lint
