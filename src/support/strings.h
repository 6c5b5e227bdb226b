// Small string utilities used across the toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hicsync::support {

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
[[nodiscard]] bool is_identifier(std::string_view s);

/// Indent every line of `s` by `n` spaces.
[[nodiscard]] std::string indent(std::string_view s, int n);

/// Checked decimal number parsing for command lines and wire fields. Each
/// accepts the whole of `s` or nothing: no whitespace, no base prefixes,
/// no trailing characters, no overflow. parse_u64 takes digits only (so
/// "-1" is rejected); parse_int takes an optional leading '-'; parse_double
/// takes a finite decimal ("150", "-2.5", "1e3"). `out` is untouched on
/// failure.
[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t* out);
[[nodiscard]] bool parse_int(std::string_view s, int* out);
[[nodiscard]] bool parse_double(std::string_view s, double* out);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace hicsync::support
