// The service's JSON reader against a reference string decoder: the
// byte-at-a-time loop json::Parser used before it copied runs of plain
// characters whole. Both must accept the same strings, decode them to the
// same bytes and reject the rest with the same message at the same
// offset.

#include "service/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>

#include "bencharness/generator.hpp"
#include "cell/library.hpp"
#include "netlist/writer.hpp"

namespace cwsp::service {
namespace {

[[noreturn]] void fail(const std::string& what, std::size_t at) {
  throw ParseError("json: " + what + " at offset " + std::to_string(at));
}

/// The reference: a document holding one string value, decoded one byte
/// per iteration exactly as the parser did before run copying.
std::string reference_parse_string_document(const std::string& text) {
  std::size_t pos = 0;
  if (pos >= text.size()) fail("unexpected end of input", pos);
  if (text[pos] != '"') fail("expected '\"'", pos);
  ++pos;
  std::string out;
  for (;;) {
    if (pos >= text.size()) fail("unterminated string", pos);
    const char c = text[pos++];
    if (c == '"') break;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos >= text.size()) fail("unterminated escape", pos);
    const char e = text[pos++];
    switch (e) {
      case '"':
      case '\\':
      case '/':
        out += e;
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (pos + 4 > text.size()) fail("short \\u escape", pos);
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            fail("bad \\u escape", pos);
        }
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xc0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          out += static_cast<char>(0xe0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (code & 0x3f));
        }
        break;
      }
      default:
        fail("bad escape", pos);
    }
  }
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                               text[pos] == '\n' || text[pos] == '\r')) {
    ++pos;
  }
  if (pos != text.size()) fail("trailing garbage", pos);
  return out;
}

/// The decoded string, or the ParseError message prefixed with "!".
std::string outcome(std::string (*parse)(const std::string&),
                    const std::string& text) {
  try {
    return parse(text);
  } catch (const ParseError& e) {
    return std::string("!") + e.what();
  }
}

std::string service_parse(const std::string& text) {
  return json::parse(text).as_string();
}

std::string reference(const std::string& text) {
  return reference_parse_string_document(text);
}

/// A random string body over an alphabet weighted toward the bytes the
/// decoder treats specially: quotes, backslashes, slashes, control and
/// high bytes, every escape form (\u giving 1-, 2- and 3-byte UTF-8) and
/// broken escapes, between plain runs of 0 to 40 bytes.
std::string random_body(std::mt19937_64& rng) {
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const auto hex4 = [&](unsigned code) {
    const char* digits =
        pick(2) == 0 ? "0123456789abcdef" : "0123456789ABCDEF";
    std::string out;
    for (int shift = 12; shift >= 0; shift -= 4) {
      out += digits[(code >> shift) & 0xf];
    }
    return out;
  };
  std::string body;
  const std::uint64_t tokens = pick(12);
  for (std::uint64_t t = 0; t < tokens; ++t) {
    switch (pick(14)) {
      case 0:
      case 1: {
        const std::uint64_t run = pick(41);
        for (std::uint64_t i = 0; i < run; ++i) {
          body += static_cast<char>('a' + pick(26));
        }
        break;
      }
      case 2:
        body += '"';
        break;
      case 3:
        body += '\\';
        break;
      case 4:
        body += '/';
        break;
      case 5:
        body += static_cast<char>(pick(0x20));  // control byte, raw
        break;
      case 6:
        body += static_cast<char>(0x80 + pick(0x80));  // high byte, raw
        break;
      case 7:
        body += '\\';
        body += "\"\\/bfnrt"[pick(8)];
        break;
      case 8:  // \u to 1-, 2- and 3-byte UTF-8
        body += "\\u" + hex4(static_cast<unsigned>(pick(0x80)));
        break;
      case 9:
        body += "\\u" + hex4(static_cast<unsigned>(0x80 + pick(0x780)));
        break;
      case 10:
        body += "\\u" + hex4(static_cast<unsigned>(0x800 + pick(0xf800)));
        break;
      case 11:  // short or bad \u
        body += "\\u";
        body += hex4(static_cast<unsigned>(pick(0x10000))).substr(0, pick(4));
        if (pick(2) == 0) body += "gxz-"[pick(4)];
        break;
      case 12:  // bad escape
        body += '\\';
        body += "aqx0 \n"[pick(6)];
        break;
      default:
        body += ' ';
        break;
    }
  }
  return body;
}

TEST(JsonStrings, RunCopyingDecoderMatchesTheByteAtATimeReference) {
  std::mt19937_64 rng(2024);
  std::map<std::string, int> kinds;  // decoded, or each error message kind
  for (int i = 0; i < 10'000; ++i) {
    std::string text = "\"" + random_body(rng);
    if (rng() % 8 != 0) text += '"';  // else usually unterminated
    if (rng() % 16 == 0) text += " \r\n";
    const std::string expected = outcome(reference, text);
    ASSERT_EQ(outcome(service_parse, text), expected) << "input: " << text;
    if (expected.empty() || expected[0] != '!') {
      ++kinds["decoded"];
    } else {
      ++kinds[expected.substr(0, expected.find(" at offset"))];
    }
  }
  // The alphabet reaches every outcome the decoder has.
  for (const char* kind :
       {"decoded", "!json: unterminated string", "!json: unterminated escape",
        "!json: short \\u escape", "!json: bad \\u escape",
        "!json: bad escape", "!json: trailing garbage"}) {
    EXPECT_GE(kinds[kind], 20) << kind;
  }
}

TEST(JsonStrings, MalformedStringsFailAtThePinnedOffsets) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("abc)", "json: unterminated string at offset 4"},
      {R"("abc\)", "json: unterminated escape at offset 5"},
      {R"("\u12")", "json: short \\u escape at offset 3"},
      {R"("\u12g4")", "json: bad \\u escape at offset 6"},
      {R"("ab\q")", "json: bad escape at offset 5"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(outcome(reference, text), std::string("!") + message);
    EXPECT_EQ(outcome(service_parse, text), std::string("!") + message);
  }
}

TEST(JsonStrings, EscapesDecodeToUtf8OfOneTwoAndThreeBytes) {
  EXPECT_EQ(service_parse(R"("\u0041\u00e9\u20AC\/\b\f\n\r\t")"),
            "A\xc3\xa9\xe2\x82\xac/\b\f\n\r\t");
  // Raw control and high bytes are accepted as themselves.
  EXPECT_EQ(service_parse(std::string("\"\x01\x1f\xff\"")), "\x01\x1f\xff");
}

TEST(JsonStrings, C7552DesignRoundTripsThroughEscapeAndParse) {
  const CellLibrary library = make_default_library();
  const std::string design =
      to_bench_string(bench::clone_with_output_flip_flops(
          bench::generate_benchmark(bench::find_benchmark("C7552"), library)
              .netlist));
  ASSERT_GT(design.size(), 300'000u);
  const std::string request =
      R"({"op":"campaign","design":")" + json::escape(design) + "\"}";
  const json::Value parsed = json::parse(request);
  EXPECT_EQ(parsed.text("design", ""), design);
  EXPECT_EQ(*parsed.shared_text("design"), design);
  EXPECT_EQ(parsed.shared_text("absent"), nullptr);
}

}  // namespace
}  // namespace cwsp::service
