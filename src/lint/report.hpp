#pragma once
// Reporters for lint results: a human-readable text listing and a
// machine-readable JSON document (schema documented in docs/lint.md).

#include <string>

#include "lint/diagnostic.hpp"

namespace cwsp::lint {

/// One line per diagnostic plus a summary line; ends with '\n'.
[[nodiscard]] std::string format_text(const LintReport& report);

/// JSON object: {"design", "clean", "counts": {...}, "diagnostics":
/// [{"rule", "severity", "message", "nets", "gates", "flip_flops"}]}.
[[nodiscard]] std::string format_json(const LintReport& report);

}  // namespace cwsp::lint
