// hic-trace probe over a generated memory-organization netlist.
//
// Samples the controller's per-cycle outputs (grant lines, the event-driven
// selection slot) from its rtl::ModuleSim after the combinational settle
// and publishes controller-side events (ArbWin per granted pseudo-port,
// SlotAdvance on slot changes) onto a TraceBus. This is the authoritative
// "who won the port this cycle" record: it reads the same signals the
// emitted Verilog exposes, independent of the thread-side bookkeeping.
#pragma once

#include <utility>

#include "memorg/ports.h"
#include "rtl/eval.h"
#include "trace/bus.h"

namespace hicsync::memorg {

struct ProbeConfig {
  int controller = -1;    // BRAM id stamped onto events
  ControllerPorts ports;  // the sampled controller's bound ports
};

class ControllerProbe {
 public:
  explicit ControllerProbe(ProbeConfig config) : config_(std::move(config)) {}

  /// Call once per cycle after the netlist settled, before the clock edge.
  void sample(const rtl::ModuleSim& sim, std::uint64_t cycle,
              trace::TraceBus& bus);

  /// Forgets sampled history (the remembered slot), so a recycled
  /// simulation re-reports the initial SlotAdvance (SystemSim::reset).
  void reset() { last_slot_ = -1; }

 private:
  ProbeConfig config_;
  std::int64_t last_slot_ = -1;
};

}  // namespace hicsync::memorg
