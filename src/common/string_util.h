#ifndef TPIIN_COMMON_STRING_UTIL_H_
#define TPIIN_COMMON_STRING_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tpiin {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer; the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double; the whole string must be consumed.
Result<double> ParseDouble(std::string_view s);

/// Renders an integer with thousands separators: 1234567 -> "1,234,567".
std::string FormatWithCommas(int64_t value);

/// Renders `value` with fixed `digits` decimal places.
std::string FormatDouble(double value, int digits);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// True iff `s` is well-formed UTF-8 (rejects overlong encodings,
/// surrogate code points, and code points above U+10FFFF). ASCII is a
/// subset, so pure-ASCII inputs always pass. Ingest uses this to keep
/// mojibake out of label fields.
bool IsValidUtf8(std::string_view s);

// --- JSON string escaping ---------------------------------------------
//
// Defined inline in this header so tpiin_obs, which links *below*
// tpiin_common, can share the one escaper without a link cycle.

/// Index of the first byte at or after `pos` that a JSON string literal
/// cannot carry verbatim — `"`, `\` or a control byte below 0x20 —
/// or `text.size()` if there is none. Eight bytes per step: the
/// escaper's bulk-copy runs and the protocol parser's plain runs both
/// end here.
inline size_t FindJsonSpecial(std::string_view text, size_t pos) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHighs = 0x8080808080808080ULL;
  const auto has_zero = [](uint64_t v) { return (v - kOnes) & ~v & kHighs; };
  const char* data = text.data();
  const size_t n = text.size();
  while (pos + 8 <= n) {
    uint64_t word;
    std::memcpy(&word, data + pos, 8);
    // Exact (no false positives) for "some byte is < 0x20, '"' or '\'".
    if (((word - kOnes * 0x20) & ~word & kHighs) |
        has_zero(word ^ (kOnes * '"')) | has_zero(word ^ (kOnes * '\\'))) {
      break;
    }
    pos += 8;
  }
  for (; pos < n; ++pos) {
    const unsigned char c = static_cast<unsigned char>(data[pos]);
    if (c < 0x20 || c == '"' || c == '\\') return pos;
  }
  return n;
}

/// Appends `text` escaped for embedding in a JSON string literal
/// (quotes not included): `"` and `\` are backslash-escaped, \n \r \t
/// by name, every other byte below 0x20 as \u00xx; all else, 0x7f and
/// UTF-8 multi-byte sequences included, passes through. One scan sizes
/// the output exactly, a second copies the plain runs between escapes
/// in bulk.
inline void AppendJsonEscaped(std::string_view text, std::string* out) {
  size_t escaped_size = text.size();
  for (size_t i = FindJsonSpecial(text, 0); i < text.size();
       i = FindJsonSpecial(text, i + 1)) {
    const char c = text[i];
    escaped_size += (c == '"' || c == '\\' || c == '\n' || c == '\r' ||
                     c == '\t')
                        ? 1
                        : 5;
  }
  // Exact for a fresh string; geometric when appending piecemeal, so
  // many small appends into one growing string stay linear.
  const size_t needed = out->size() + escaped_size;
  if (needed > out->capacity()) {
    out->reserve(out->empty() ? needed : std::max(needed, 2 * out->capacity()));
  }
  size_t start = 0;
  while (start < text.size()) {
    const size_t i = FindJsonSpecial(text, start);
    out->append(text.data() + start, i - start);
    if (i == text.size()) break;
    const unsigned char c = static_cast<unsigned char>(text[i]);
    switch (c) {
      case '"': out->append("\\\"", 2); break;
      case '\\': out->append("\\\\", 2); break;
      case '\n': out->append("\\n", 2); break;
      case '\r': out->append("\\r", 2); break;
      case '\t': out->append("\\t", 2); break;
      default: {
        const char hex[] = "0123456789abcdef";
        const char code[6] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 15]};
        out->append(code, 6);
      }
    }
    start = i + 1;
  }
}

/// AppendJsonEscaped into a fresh string.
inline std::string JsonEscape(std::string_view text) {
  std::string out;
  AppendJsonEscaped(text, &out);
  return out;
}

}  // namespace tpiin

#endif  // TPIIN_COMMON_STRING_UTIL_H_
