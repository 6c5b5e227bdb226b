#include "core/tbgen.h"

#include <stdexcept>

#include "memorg/deplist.h"
#include "memorg/ports.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"

namespace hicsync::core {

namespace {

/// Steps until net `signal` is 1 (pre-edge); throws after 8 cycles.
void wait_for(rtl::TestbenchRecorder& rec, const rtl::Module& module,
              int signal) {
  for (int i = 0; i < 8; ++i) {
    rec.sim().settle();
    if (rec.sim().get(signal) != 0) return;
    rec.step();
  }
  throw std::runtime_error("testbench generation: '" +
                           module.net(signal).name + "' never asserted");
}

}  // namespace

std::string generate_controller_testbench(const CompileResult& result,
                                          int bram_id) {
  const memalloc::BramInstance* bram = nullptr;
  for (const auto& b : result.memory_map().brams()) {
    if (b.id == bram_id) bram = &b;
  }
  const memalloc::BramPortPlan* plan = nullptr;
  for (const auto& p : result.port_plans()) {
    if (p.bram_id == bram_id) plan = &p;
  }
  const rtl::Module* module =
      result.design().find("memorg_bram" + std::to_string(bram_id));
  if (bram == nullptr || plan == nullptr || module == nullptr) {
    throw std::runtime_error("testbench generation: unknown bram id " +
                             std::to_string(bram_id));
  }
  const auto entries = memorg::build_dep_entries(*bram, *plan);
  const memorg::ControllerPorts ports = memorg::bind_ports(
      *module, result.options().organization == sim::OrgKind::EventDriven,
      plan->consumer_pseudo_ports(), plan->producer_pseudo_ports());

  rtl::TestbenchRecorder rec(*module);
  rec.reset();

  // One produce -> consume exchange per entry, in schedule order. The
  // event-driven controller also waits for the producer's slot; a
  // consumer's slot follows its predecessor's read.
  const auto schedule = memorg::slot_schedule(entries);
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    const memorg::Slot& slot = schedule[s];
    const memorg::DepEntry& e = entries[static_cast<std::size_t>(slot.entry)];
    const auto pp = static_cast<std::size_t>(slot.pseudo_port);
    if (slot.producer) {
      const memorg::ProducerNets& p = ports.producers[pp];
      if (ports.event_driven) {
        while (rec.sim().get(ports.slot) != s) rec.step();
      }
      rec.set_input(p.req, 1);
      rec.set_input(p.addr, e.base_address);
      rec.set_input(p.wdata, 0xC0DE + static_cast<std::uint64_t>(slot.entry));
      wait_for(rec, *module, p.grant);
      rec.step();
      rec.set_input(p.req, 0);
    } else {
      // The grant (event-driven: the slot's event, which fires it while the
      // request is up); data is valid two cycles later.
      const memorg::ConsumerNets& c = ports.consumers[pp];
      rec.set_input(c.req, 1);
      rec.set_input(c.addr, e.base_address);
      wait_for(rec, *module, c.grant);
      rec.step();
      rec.set_input(c.req, 0);
      wait_for(rec, *module, c.valid);
      rec.step();
    }
  }
  // A few trailing idle cycles so the tail expectations are recorded.
  rec.step();
  rec.step();

  std::string out = rtl::emit_module(*module);
  out += "\n";
  out += rec.emit("tb_" + module->name());
  return out;
}

}  // namespace hicsync::core
