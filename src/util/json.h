// Minimal JSON emission helpers shared by the api layer's SolveResult
// reports and the sweep / service / net documents. Parsing lives in
// util/json_parse.h.
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace wmatch::util {

/// Formats a number for JSON emission, losslessly for exact integers:
/// integral values (counters, optima, weights carried as doubles) print
/// as plain integers — the default 6-significant-digit format would
/// round e.g. a Blossom optimum of 2124337 to 2.12434e+06 in a BENCH
/// artifact — while non-integral values (ratios, wall ms) keep the
/// compact default format. Shared by the api / sweep / service JSON
/// writers so their documents stay byte-compatible.
inline std::string json_number(double x) {
  if (std::floor(x) == x && std::abs(x) < 1e15) {
    return std::to_string(static_cast<long long>(x));
  }
  std::ostringstream ss;
  ss << x;
  return ss.str();
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes, and
/// every control character (RFC 8259 requires \u00XX for bytes < 0x20).
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace wmatch::util
