// Helpers for driving rtl::ModuleSim in tests.
#pragma once

#include "rtl/eval.h"

namespace hicsync::rtl::testing {

/// One clock cycle from the inputs as they stand: settle, then commit the
/// edge. Combinational nets are stale afterwards (ModuleSim's contract);
/// settle() again before reading them.
inline void tick(ModuleSim& sim) {
  sim.settle();
  sim.step();
}

}  // namespace hicsync::rtl::testing
