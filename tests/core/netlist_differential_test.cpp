// Differential test of rtl::ModuleSim on the real generated controllers:
// every module compiled for the shipped examples and the 32-consumer
// fan-out, under both organizations, runs for 200 cycles of seeded random
// inputs on ModuleSim and on the independent reference interpreter
// (tests/rtl/reference_sim.h). Every net is compared after each settle and
// every memory word after each clock edge.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../rtl/reference_sim.h"
#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rtl/eval.h"
#include "support/file.h"
#include "support/rng.h"

namespace hicsync::core {
namespace {

using rtl::testing::ReferenceSim;

constexpr int kCycles = 200;

std::string source_of(const std::string& name) {
  if (name == "fan32") return netapp::fanout_source(32);
  std::string text;
  std::string error;
  EXPECT_TRUE(support::read_file(
      std::string(HICSYNC_EXAMPLES_DIR) + "/" + name + ".hic", &text, &error))
      << error;
  return text;
}

/// Runs one module on both evaluators for kCycles cycles.
void run_differential(const rtl::Module& m, std::uint64_t seed) {
  rtl::ModuleSim sim(m);
  ReferenceSim ref(m);
  support::Rng rng(seed);
  std::vector<int> inputs;
  int rst = -1;
  for (const rtl::Port& p : m.ports()) {
    if (p.dir != rtl::PortDir::Input || p.name == "clk") continue;
    if (p.name == "rst") {
      rst = p.net;
    } else {
      inputs.push_back(p.net);
    }
  }
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (rst >= 0) {
      // Reset on the first cycle, then rarely.
      const std::uint64_t r = cycle == 0 || rng.next_bool(0.02) ? 1 : 0;
      sim.set_input(rst, r);
      ref.set_input(rst, r);
    }
    for (int net : inputs) {
      // Mostly small values, so requests hit the dependency addresses.
      const std::uint64_t v =
          rng.next_bool(0.5) ? rng.next_below(16) : rng.next_u64();
      sim.set_input(net, v);
      ref.set_input(net, v);
    }
    sim.settle();
    ref.settle();
    for (const rtl::Net& n : m.nets()) {
      ASSERT_EQ(sim.get(n.id), ref.get(n.id))
          << m.name() << " cycle " << cycle << " net " << n.name;
    }
    sim.step();
    ref.step();
    const auto& mems = m.memories();
    for (std::size_t k = 0; k < mems.size(); ++k) {
      for (std::size_t a = 0; a < static_cast<std::size_t>(mems[k].depth);
           ++a) {
        ASSERT_EQ(sim.read_mem(mems[k].name, a), ref.word(k, a))
            << m.name() << " cycle " << cycle << " " << mems[k].name << "["
            << a << "]";
      }
    }
  }
}

struct Case {
  const char* source;
  sim::OrgKind org;
};

class ControllerDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(ControllerDifferential, ModuleSimMatchesReferenceEveryCycle) {
  const Case c = GetParam();
  CompileOptions options;
  options.organization = c.org;
  auto result = Compiler(options).compile(source_of(c.source));
  ASSERT_TRUE(result->ok()) << result->diags().str();
  int modules = 0;
  std::uint64_t seed = 1;
  for (const auto& module : result->design().modules()) {
    run_differential(*module, seed++);
    if (HasFatalFailure()) return;
    ++modules;
  }
  EXPECT_GT(modules, 0);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.source) +
         (info.param.org == sim::OrgKind::Arbitrated ? "_arbitrated"
                                                     : "_event_driven");
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, ControllerDifferential,
    ::testing::Values(Case{"fig1", sim::OrgKind::Arbitrated},
                      Case{"fig1", sim::OrgKind::EventDriven},
                      Case{"pipeline", sim::OrgKind::Arbitrated},
                      Case{"pipeline", sim::OrgKind::EventDriven},
                      Case{"stress8", sim::OrgKind::Arbitrated},
                      Case{"stress8", sim::OrgKind::EventDriven},
                      Case{"stress_shared", sim::OrgKind::Arbitrated},
                      Case{"stress_shared", sim::OrgKind::EventDriven},
                      Case{"fan32", sim::OrgKind::Arbitrated},
                      Case{"fan32", sim::OrgKind::EventDriven}),
    case_name);

}  // namespace
}  // namespace hicsync::core
