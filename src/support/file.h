// Whole-file reads and writes: every tool and loader that moves a file
// into or out of a string goes through these two.
#pragma once

#include <string>
#include <string_view>

namespace hicsync::support {

/// Reads `path` whole into *text. On failure returns false and sets
/// *error (when given) to "cannot open '<path>'".
[[nodiscard]] bool read_file(const std::string& path, std::string* text,
                             std::string* error = nullptr);

/// Writes `body` to `path`, replacing it. On failure returns false and
/// sets *error (when given) to "cannot write '<path>'".
[[nodiscard]] bool write_file(const std::string& path, std::string_view body,
                              std::string* error = nullptr);

}  // namespace hicsync::support
