// Deterministic workload execution for hic-rt.
//
// A "workload" is one run of a program on a SystemSim: reset the instance,
// clear and re-seed its extern bindings from a session-provided input
// seed, run to the requested pass count, and collect every register
// variable's final value. Both the sharded service (service.cpp) and the
// differential tests' single-instance baseline call exactly this function,
// which is what makes "pool results == fresh-instance results" a provable
// property rather than a convention: any divergence is a real
// recycling/sharding bug, not a harness artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hic/ast.h"
#include "hic/sema.h"
#include "sim/system.h"
#include "support/hash.h"

namespace hicsync::rt {

/// Starting value of a session's input seed (the FNV-1a offset basis).
inline constexpr std::uint64_t kWorkloadSeedInit = support::kFnvOffset;

/// Folds `count` payload words into `seed` (order-sensitive: hash_combine
/// then an FNV-prime multiply per word). A session's produce commands
/// accumulate into its seed with this; the differential tests fold the
/// same words the same way to reproduce a session's inputs on a fresh
/// simulator.
[[nodiscard]] inline std::uint64_t fold_seed(std::uint64_t seed,
                                             const std::uint64_t* words,
                                             std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    seed = support::hash_combine(seed, words[i]) * support::kFnvPrime;
  }
  return seed;
}

/// Names of every opaque extern call in the program, deduplicated and
/// sorted (deterministic across traversal orders).
[[nodiscard]] std::vector<std::string> extern_calls(
    const hic::Program& program);

/// Registers a deterministic implementation for every extern call of the
/// program: a mix of the callee name, the workload `seed` and the argument
/// values. Same (program, seed) → same extern behavior everywhere, which
/// is how two simulator instances are made to compute identical results.
void seed_externs(sim::SystemSim& sim, const hic::Program& program,
                  std::uint64_t seed);

struct WorkloadResult {
  bool converged = false;   // every thread reached the pass target
  std::uint64_t cycles = 0; // simulated cycles consumed
  std::uint64_t rounds = 0; // completed produce→consume rounds
  /// Every register (non-memory-resident) variable's final value, as
  /// ("thread.var", value) in program-thread then declaration order.
  std::vector<std::pair<std::string, std::uint64_t>> registers;
};

/// Runs one workload on `sim` (which must have been built from `program` /
/// `sema`): reset → clear externs → seed_externs(seed) → run_until_passes.
[[nodiscard]] WorkloadResult run_workload(sim::SystemSim& sim,
                                          const hic::Program& program,
                                          const hic::Sema& sema, int passes,
                                          std::uint64_t max_cycles,
                                          std::uint64_t seed);

}  // namespace hicsync::rt
