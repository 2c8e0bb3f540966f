#include "lint/report.hpp"

#include <sstream>

#include "common/json_text.hpp"

namespace cwsp::lint {
namespace {

void append_name_array(std::ostringstream& os, const char* key,
                       const std::vector<std::string>& names) {
  os << '"' << key << "\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << json_text::escape(names[i]) << '"';
  }
  os << ']';
}

}  // namespace

std::string format_text(const LintReport& report) {
  std::ostringstream os;
  for (const Diagnostic& d : report.diagnostics) {
    os << to_string(d.severity) << " [" << d.rule_id << "] " << d.message
       << '\n';
  }
  os << "lint '" << report.design << "': ";
  if (report.clean()) {
    os << "clean\n";
  } else {
    os << report.errors() << " error(s), " << report.warnings()
       << " warning(s), " << report.count(Severity::kInfo) << " info\n";
  }
  return os.str();
}

std::string format_json(const LintReport& report) {
  std::ostringstream os;
  os << "{\n  \"design\": \"" << json_text::escape(report.design) << "\",\n";
  os << "  \"clean\": " << (report.clean() ? "true" : "false") << ",\n";
  os << "  \"counts\": {\"error\": " << report.errors()
     << ", \"warning\": " << report.warnings()
     << ", \"info\": " << report.count(Severity::kInfo) << "},\n";
  os << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"rule\": \""
       << json_text::escape(d.rule_id) << "\", \"severity\": \""
       << to_string(d.severity) << "\", \"message\": \""
       << json_text::escape(d.message) << "\", ";
    append_name_array(os, "nets", d.net_names);
    os << ", ";
    append_name_array(os, "gates", d.gate_names);
    os << ", ";
    append_name_array(os, "flip_flops", d.ff_names);
    os << '}';
  }
  os << (report.diagnostics.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace cwsp::lint
