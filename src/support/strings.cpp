#include "support/strings.h"

#include <cctype>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace hicsync::support {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

std::string indent(std::string_view s, int n) {
  std::string pad(static_cast<std::size_t>(n), ' ');
  std::string out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t pos = s.find('\n', start);
    std::string_view line = (pos == std::string_view::npos)
                                ? s.substr(start)
                                : s.substr(start, pos - start);
    if (!line.empty()) {
      out += pad;
      out += line;
    }
    if (pos == std::string_view::npos) break;
    out += '\n';
    start = pos + 1;
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool parse_int(std::string_view s, int* out) {
  const bool negative = !s.empty() && s.front() == '-';
  std::uint64_t magnitude = 0;
  if (!parse_u64(negative ? s.substr(1) : s, &magnitude)) return false;
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) +
      (negative ? 1 : 0);
  if (magnitude > limit) return false;
  *out = negative ? static_cast<int>(-static_cast<std::int64_t>(magnitude))
                  : static_cast<int>(magnitude);
  return true;
}

bool parse_double(std::string_view s, double* out) {
  // strtod alone would also take whitespace, hex, "inf" and "nan".
  if (s.empty() ||
      s.find_first_not_of("0123456789.eE+-") != std::string_view::npos) {
    return false;
  }
  const std::string text(s);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace hicsync::support
