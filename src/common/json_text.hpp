#pragma once
// JSON string escaping: the one escaper behind every JSON document the
// project writes (reports, journals of record, the service's envelopes;
// service::json::escape is this function).

#include <string>

namespace cwsp::json_text {

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included): `"` and `\` get a backslash, newline, carriage return and
/// tab their short escapes, and every other control character becomes
/// \u00XX, so any input yields a valid JSON string.
[[nodiscard]] std::string escape(const std::string& text);

}  // namespace cwsp::json_text
