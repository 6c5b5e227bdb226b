// The toolchain's one non-cryptographic hash: FNV-1a 64 plus a
// boost-style hash_combine. Artifact and bundle digests, workload seeds,
// extern stand-ins and the model checker's state table all hash through
// these, so their values are part of the artifact format and of the
// benchmark goldens: never change the bits. Header-inline because the
// state table and the workload seed fold are on hot paths.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace hicsync::support {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// 2^64 / golden ratio: the hash_combine increment and seed scrambler.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// One FNV-1a step: fold `v` into `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                                 std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// FNV-1a 64 over `bytes`.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  for (char c : bytes) h = fnv1a_step(h, static_cast<unsigned char>(c));
  return h;
}

/// Order-sensitive mix of `v` into `h` (the boost hash_combine shape).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h,
                                                   std::uint64_t v) {
  return h ^ (v + kGoldenGamma + (h << 6) + (h >> 2));
}

/// `v` as 16 lowercase hex digits.
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace hicsync::support
