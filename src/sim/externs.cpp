#include "sim/externs.h"

#include "support/hash.h"

namespace hicsync::sim {

std::uint64_t ExternFuncs::eval(const std::string& name,
                                const std::vector<std::uint64_t>& args) const {
  auto it = fns_.find(name);
  if (it != fns_.end()) return it->second(args);
  std::uint64_t h = support::kFnvOffset;
  for (char c : name) {
    h = support::hash_combine(h, static_cast<std::uint64_t>(c));
  }
  for (std::uint64_t a : args) h = support::hash_combine(h, a);
  return h;
}

}  // namespace hicsync::sim
