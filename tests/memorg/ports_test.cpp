// The controller interface memorg owns: the §3.2 slot schedule checked
// against the generated event-driven netlist, and port binding.

#include "memorg/ports.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/compiler.h"
#include "memorg/deplist.h"
#include "memorg_test_util.h"
#include "support/file.h"
#include "../rtl/rtl_test_util.h"

#ifndef HICSYNC_EXAMPLES_DIR
#error "HICSYNC_EXAMPLES_DIR must point at the examples/ directory"
#endif

namespace hicsync::memorg {
namespace {

using rtl::testing::tick;

TEST(SlotSchedule, ProducerThenConsumersPerEntryInOrder) {
  std::vector<DepEntry> entries(2);
  entries[0].producer_port = 0;
  entries[0].consumer_ports = {1, 0};
  entries[1].producer_port = 1;
  entries[1].consumer_ports = {2};
  const std::vector<Slot> schedule = slot_schedule(entries);
  ASSERT_EQ(schedule.size(), 5u);
  EXPECT_EQ(total_slots(entries), 5);
  const Slot want[] = {
      {0, true, 0}, {0, false, 1}, {0, false, 0}, {1, true, 1}, {1, false, 2}};
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    EXPECT_EQ(schedule[s].entry, want[s].entry) << s;
    EXPECT_EQ(schedule[s].producer, want[s].producer) << s;
    EXPECT_EQ(schedule[s].pseudo_port, want[s].pseudo_port) << s;
    EXPECT_EQ(find_slot(schedule, want[s].entry, want[s].producer,
                        want[s].pseudo_port),
              static_cast<int>(s));
  }
  EXPECT_EQ(find_slot(schedule, 1, false, 0), -1);
}

// Each slot owner's request, raised in schedule order, must move the
// netlist's exported `slot` to the next index, and the last one wraps it
// back to 0: the generated selection logic is the schedule.
TEST(SlotSchedule, EventDrivenNetlistFollowsTheScheduleAndWraps) {
  for (const char* example : {"fig1", "stress8"}) {
    std::string source;
    std::string error;
    ASSERT_TRUE(support::read_file(
        std::string(HICSYNC_EXAMPLES_DIR) + "/" + example + ".hic", &source,
        &error))
        << error;
    core::CompileOptions options;
    options.organization = sim::OrgKind::EventDriven;
    auto r = core::Compiler(options).compile(source);
    ASSERT_TRUE(r->ok()) << example << "\n" << r->diags().str();
    for (const memalloc::BramPortPlan& plan : r->port_plans()) {
      const memalloc::BramInstance* bram = nullptr;
      for (const auto& b : r->memory_map().brams()) {
        if (b.id == plan.bram_id) bram = &b;
      }
      ASSERT_NE(bram, nullptr);
      const std::vector<Slot> schedule =
          slot_schedule(build_dep_entries(*bram, plan));
      if (schedule.empty()) continue;
      const rtl::Module* m = r->design().find(
          "memorg_bram" + std::to_string(plan.bram_id));
      ASSERT_NE(m, nullptr);
      const ControllerPorts ports =
          bind_ports(*m, true, plan.consumer_pseudo_ports(),
                     plan.producer_pseudo_ports());
      rtl::ModuleSim sim(*m);
      sim.reset();
      for (int lap = 0; lap < 2; ++lap) {
        for (std::size_t s = 0; s < schedule.size(); ++s) {
          const std::string where = std::string(example) + " bram" +
                                    std::to_string(plan.bram_id) + " lap " +
                                    std::to_string(lap) + " slot " +
                                    std::to_string(s);
          ASSERT_EQ(sim.get(ports.slot), s) << where;
          // Without its owner's request the slot holds.
          tick(sim);
          ASSERT_EQ(sim.get(ports.slot), s) << where;
          const auto pp = static_cast<std::size_t>(schedule[s].pseudo_port);
          const int req = schedule[s].producer ? ports.producers[pp].req
                                               : ports.consumers[pp].req;
          sim.set_input(req, 1);
          tick(sim);
          sim.set_input(req, 0);
        }
        EXPECT_EQ(sim.get(ports.slot), 0u) << example << " did not wrap";
      }
    }
  }
}

TEST(ControllerPorts, BindsTheGeneratedPortNets) {
  rtl::Design d;
  const rtl::Module& arb =
      generate_arbitrated(d, testing::arb_config(2), "arb");
  const ControllerPorts a = bind_ports(arb, false, 2, 1);
  EXPECT_EQ(arb.net(a.consumers[1].grant).name, "c_grant1");
  EXPECT_EQ(arb.net(a.producers[0].wdata).name, "d_wdata0");
  EXPECT_EQ(arb.net(a.a.rdata).name, "a_rdata");
  EXPECT_EQ(a.slot, -1);

  const rtl::Module& ev =
      generate_eventdriven(d, testing::ev_config(2), "ev");
  const ControllerPorts e = bind_ports(ev, true, 2, 1);
  EXPECT_EQ(ev.net(e.consumers[1].grant).name, "ev_c1");
  EXPECT_EQ(ev.net(e.producers[0].grant).name, "p_grant0");
  EXPECT_EQ(ev.net(e.slot).name, "slot");
  EXPECT_EQ(ev.net(e.bus_rdata).name, "bus_rdata");
}

TEST(ControllerPorts, BindingNamesTheMissingPort) {
  rtl::Design d;
  const rtl::Module& full =
      generate_arbitrated(d, testing::arb_config(2), "arb");
  // The same interface without c_grant1.
  rtl::Module& cut = d.add_module("cut");
  for (const rtl::Port& p : full.ports()) {
    if (p.name == "c_grant1") continue;
    const int width = full.net(p.net).width;
    (void)(p.dir == rtl::PortDir::Input ? cut.add_input(p.name, width)
                                        : cut.add_output(p.name, width));
  }
  EXPECT_NO_THROW((void)bind_ports(full, false, 2, 1));
  try {
    (void)bind_ports(cut, false, 2, 1);
    FAIL() << "binding a module without c_grant1 must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'c_grant1'"), std::string::npos)
        << e.what();
  }
  // Asking for a pseudo-port the generator did not create names it too.
  EXPECT_THROW((void)bind_ports(full, false, 3, 1), std::runtime_error);
}

}  // namespace
}  // namespace hicsync::memorg
