#include "memorg/probe.h"

namespace hicsync::memorg {

void ControllerProbe::sample(const rtl::ModuleSim& sim, std::uint64_t cycle,
                             trace::TraceBus& bus) {
  const ControllerPorts& ports = config_.ports;
  trace::Event e;
  e.cycle = cycle;
  e.controller = config_.controller;
  e.kind = trace::EventKind::ArbWin;

  e.port = trace::PortKind::C;
  for (std::size_t i = 0; i < ports.consumers.size(); ++i) {
    if (ports.read_accepted(sim, static_cast<int>(i))) {
      e.pseudo_port = static_cast<int>(i);
      bus.emit(e);
    }
  }
  e.port = trace::PortKind::D;
  for (std::size_t j = 0; j < ports.producers.size(); ++j) {
    if (sim.get(ports.producers[j].grant) != 0) {
      e.pseudo_port = static_cast<int>(j);
      bus.emit(e);
    }
  }

  if (ports.event_driven) {
    auto slot = static_cast<std::int64_t>(sim.get(ports.slot));
    if (slot != last_slot_) {
      last_slot_ = slot;
      trace::Event se;
      se.cycle = cycle;
      se.controller = config_.controller;
      se.kind = trace::EventKind::SlotAdvance;
      se.value = slot;
      bus.emit(se);
    }
  }
}

}  // namespace hicsync::memorg
