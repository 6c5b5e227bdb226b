#include "memorg/arbitrated.h"

#include <gtest/gtest.h>

#include "memorg_test_util.h"
#include "rtl/eval.h"
#include "../rtl/rtl_test_util.h"

namespace hicsync::memorg {
namespace {

using rtl::testing::tick;

using testing::arb_config;
using testing::idx;

rtl::Module& gen(rtl::Design& d, const ArbitratedConfig& cfg) {
  rtl::Module& m = generate_arbitrated(d, cfg, "arb");
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
  return m;
}

/// Steps until `signal` reads 1 (checked pre-edge). Returns the number of
/// cycles waited, or -1 after `max_cycles`.
int wait_for(rtl::ModuleSim& sim, const std::string& signal,
             int max_cycles) {
  for (int i = 0; i <= max_cycles; ++i) {
    sim.settle();
    if (sim.get(signal) != 0) return i;
    tick(sim);
  }
  return -1;
}

/// Performs one producer write on pseudo-port j; leaves the sim just after
/// the grant edge. Returns false if the grant never came.
bool produce(rtl::ModuleSim& sim, int j, std::uint64_t addr,
             std::uint64_t value, int max_cycles = 8) {
  sim.set_input(idx("d_req", j), 1);
  sim.set_input(idx("d_addr", j), addr);
  sim.set_input(idx("d_wdata", j), value);
  if (wait_for(sim, idx("d_grant", j), max_cycles) < 0) return false;
  tick(sim);  // commit the grant
  sim.set_input(idx("d_req", j), 0);
  return true;
}

/// Performs one consumer read on pseudo-port i and waits for its data.
/// Returns the read value through `out`; false on timeout.
bool consume(rtl::ModuleSim& sim, int i, std::uint64_t addr,
             std::uint64_t* out = nullptr, int max_cycles = 12) {
  sim.set_input(idx("c_req", i), 1);
  sim.set_input(idx("c_addr", i), addr);
  if (wait_for(sim, idx("c_grant", i), max_cycles) < 0) return false;
  tick(sim);
  sim.set_input(idx("c_req", i), 0);
  if (wait_for(sim, idx("c_valid", i), 4) < 0) return false;
  if (out != nullptr) *out = sim.get("bus_rdata");
  tick(sim);
  return true;
}

TEST(ArbitratedStructure, Figure2PortsPresent) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.settle();
  // Four logical ports of Fig. 2.
  EXPECT_NO_THROW((void)sim.get("a_rdata"));
  EXPECT_NO_THROW((void)sim.get("b_grant"));
  EXPECT_NO_THROW((void)sim.get("c_grant0"));
  EXPECT_NO_THROW((void)sim.get("c_grant1"));
  EXPECT_NO_THROW((void)sim.get("d_grant0"));
  // The dependency list countdown register exists.
  EXPECT_NO_THROW((void)sim.get("dep0_count"));
}

TEST(ArbitratedStructure, FlipFlopCountConstantAcrossConsumers) {
  // Table 1 prose: "The constant flip-flop count is due to the baseline
  // architecture ... additional multiplexing of pseudo-ports does not
  // contribute to the flip-flop count."
  int ff2 = 0, ff4 = 0, ff8 = 0;
  {
    rtl::Design d;
    ff2 = gen(d, arb_config(2)).flipflop_bits();
  }
  {
    rtl::Design d;
    ff4 = gen(d, arb_config(4)).flipflop_bits();
  }
  {
    rtl::Design d;
    ff8 = gen(d, arb_config(8)).flipflop_bits();
  }
  EXPECT_EQ(ff2, ff4);
  EXPECT_EQ(ff4, ff8);
  EXPECT_GT(ff2, 0);
}

TEST(ArbitratedFunc, PortAIndependentAccess) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  sim.set_input("a_en", 1);
  sim.set_input("a_we", 1);
  sim.set_input("a_addr", 10);
  sim.set_input("a_wdata", 0xBEEF);
  tick(sim);
  sim.set_input("a_we", 0);
  tick(sim);
  EXPECT_EQ(sim.get("a_rdata"), 0xBEEFu);
}

TEST(ArbitratedFunc, ConsumerBlocksUntilProducerWrites) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  // Consumer 0 requests the guarded address before any produce: blocked.
  sim.set_input("c_req0", 1);
  sim.set_input("c_addr0", 4);
  for (int i = 0; i < 6; ++i) {
    sim.settle();
    EXPECT_EQ(sim.get("c_grant0"), 0u) << "cycle " << i;
    tick(sim);
  }
  // Producer writes; the blocked consumer is then granted and reads 77.
  ASSERT_TRUE(produce(sim, 0, 4, 77));
  ASSERT_GE(wait_for(sim, "c_grant0", 4), 0);
  tick(sim);
  sim.set_input("c_req0", 0);
  ASSERT_GE(wait_for(sim, "c_valid0", 4), 0);
  EXPECT_EQ(sim.get("bus_rdata"), 77u);
}

TEST(ArbitratedFunc, GrantAndDataLatencyExact) {
  // The pipeline is: eligibility lookup register (1 cycle) → grant →
  // port-1 operand register (1 cycle) → BRAM read (1 cycle) → valid.
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  ASSERT_TRUE(produce(sim, 0, 4, 9));
  // Request with the entry already produced: grant exactly 1 cycle after
  // the request cycle (the lookup register).
  sim.set_input("c_req0", 1);
  sim.set_input("c_addr0", 4);
  sim.settle();
  EXPECT_EQ(sim.get("c_grant0"), 0u);
  tick(sim);
  sim.settle();
  EXPECT_EQ(sim.get("c_grant0"), 1u);
  tick(sim);
  sim.set_input("c_req0", 0);
  // Valid exactly 2 cycles after the grant edge.
  sim.settle();
  EXPECT_EQ(sim.get("c_valid0"), 0u);
  tick(sim);
  sim.settle();
  EXPECT_EQ(sim.get("c_valid0"), 1u);
  EXPECT_EQ(sim.get("bus_rdata"), 9u);
}

TEST(ArbitratedFunc, DependencyCountTracksReads) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  EXPECT_EQ(sim.get("dep0_count"), 0u);
  ASSERT_TRUE(produce(sim, 0, 4, 1));
  EXPECT_EQ(sim.get("dep0_count"), 2u);
  ASSERT_TRUE(consume(sim, 0, 4));
  EXPECT_EQ(sim.get("dep0_count"), 1u);
  ASSERT_TRUE(consume(sim, 1, 4));
  EXPECT_EQ(sim.get("dep0_count"), 0u);
}

TEST(ArbitratedFunc, ProducerBlockedUntilCycleCompletes) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  ASSERT_TRUE(produce(sim, 0, 4, 1));
  // Second produce attempt while both reads are outstanding: blocked.
  sim.set_input("d_req0", 1);
  sim.set_input("d_addr0", 4);
  sim.set_input("d_wdata0", 2);
  for (int i = 0; i < 5; ++i) {
    sim.settle();
    EXPECT_EQ(sim.get("d_grant0"), 0u) << "cycle " << i;
    tick(sim);
  }
  // One consumer reads; still blocked (count 1).
  ASSERT_TRUE(consume(sim, 0, 4));
  sim.settle();
  EXPECT_EQ(sim.get("d_grant0"), 0u);
  EXPECT_EQ(sim.get("dep0_count"), 1u);
  // Second consumer completes the cycle; the pending write is then granted
  // (possibly already during the read's drain cycles), which re-guards the
  // entry: the countdown returns to the dependency number.
  ASSERT_TRUE(consume(sim, 1, 4));
  bool reloaded = false;
  for (int i = 0; i < 6 && !reloaded; ++i) {
    sim.settle();
    reloaded = sim.get("dep0_count") == 2u;
    tick(sim);
  }
  EXPECT_TRUE(reloaded);
  EXPECT_EQ(sim.read_mem("mem", 4), 2u);
}

TEST(ArbitratedFunc, WriteBeatsReadInSameCycle) {
  // Two entries: a read eligible on entry 0 and a write eligible on
  // entry 1 in the same cycle — the write has priority on port 1.
  ArbitratedConfig cfg = arb_config(2);
  DepEntry e2;
  e2.id = "mt2";
  e2.base_address = 8;
  e2.dependency_number = 1;
  e2.producer_port = 0;
  e2.consumer_ports = {1};
  cfg.deps.push_back(e2);
  rtl::Design d;
  rtl::Module& m = gen(d, cfg);
  rtl::ModuleSim sim(m);
  sim.reset();
  ASSERT_TRUE(produce(sim, 0, 4, 5));  // entry 0 produced, count = 2
  // Present both: consumer 0 reads addr 4 (eligible), producer writes
  // addr 8 (entry 1, count 0 → eligible).
  sim.set_input("c_req0", 1);
  sim.set_input("c_addr0", 4);
  sim.set_input("d_req0", 1);
  sim.set_input("d_addr0", 8);
  sim.set_input("d_wdata0", 6);
  tick(sim);  // both eligibility bits latch
  sim.settle();
  EXPECT_EQ(sim.get("d_grant0"), 1u);
  EXPECT_EQ(sim.get("c_grant0"), 0u);  // suppressed by the write
  tick(sim);
  sim.set_input("d_req0", 0);
  // The read follows one cycle later.
  sim.settle();
  EXPECT_EQ(sim.get("c_grant0"), 1u);
}

TEST(ArbitratedFunc, RoundRobinFairnessAmongConsumers) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(4));
  rtl::ModuleSim sim(m);
  sim.reset();
  ASSERT_TRUE(produce(sim, 0, 4, 9));
  // All four consumers request simultaneously; each is granted exactly
  // once (dependency number = 4), one per cycle once the pipeline fills.
  for (int i = 0; i < 4; ++i) {
    sim.set_input(idx("c_req", i), 1);
    sim.set_input(idx("c_addr", i), 4);
  }
  std::vector<int> grants(4, 0);
  for (int cycle = 0; cycle < 12; ++cycle) {
    sim.settle();
    int granted = -1;
    for (int i = 0; i < 4; ++i) {
      if (sim.get(idx("c_grant", i)) != 0) {
        EXPECT_EQ(granted, -1) << "grant not one-hot";
        granted = i;
      }
    }
    if (granted >= 0) {
      ++grants[static_cast<std::size_t>(granted)];
      sim.set_input(idx("c_req", granted), 0);
    }
    tick(sim);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(grants[static_cast<std::size_t>(i)], 1) << "consumer " << i;
  }
}

TEST(ArbitratedFunc, PortBOnlyWhenCAndDSilent) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  sim.set_input("b_en", 1);
  sim.set_input("b_addr", 20);
  sim.settle();
  EXPECT_EQ(sim.get("b_grant"), 1u);
  // Any raw C request suppresses B, even an ineligible (blocked) one.
  sim.set_input("c_req0", 1);
  sim.set_input("c_addr0", 4);
  sim.settle();
  EXPECT_EQ(sim.get("b_grant"), 0u);
  sim.set_input("c_req0", 0);
  sim.set_input("d_req0", 1);
  sim.set_input("d_addr0", 4);
  sim.settle();
  EXPECT_EQ(sim.get("b_grant"), 0u);
}

TEST(ArbitratedFunc, PortBReadReturnsData) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  // Write 0x42 at 20 via port B, then read it back via port B. Each grant
  // takes effect through the registered port: the write commits one cycle
  // after its grant, the read data one more cycle after the read's grant.
  sim.set_input("b_en", 1);
  sim.set_input("b_we", 1);
  sim.set_input("b_addr", 20);
  sim.set_input("b_wdata", 0x42);
  tick(sim);  // write grant latched
  sim.set_input("b_we", 0);
  tick(sim);  // write commits; read grant latched
  tick(sim);  // read data lands
  EXPECT_EQ(sim.get("b_valid"), 1u);
  EXPECT_EQ(sim.get("bus_rdata"), 0x42u);
}

TEST(ArbitratedFunc, ValidRoutedToGrantedConsumerOnly) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(4));
  rtl::ModuleSim sim(m);
  sim.reset();
  ASSERT_TRUE(produce(sim, 0, 4, 3));
  std::uint64_t out = 0;
  ASSERT_TRUE(consume(sim, 2, 4, &out));
  EXPECT_EQ(out, 3u);
  // During the whole transaction, only consumer 2's valid ever pulsed —
  // probe here (post-read) that others are low.
  sim.settle();
  EXPECT_EQ(sim.get("c_valid0"), 0u);
  EXPECT_EQ(sim.get("c_valid1"), 0u);
  EXPECT_EQ(sim.get("c_valid3"), 0u);
}

TEST(ArbitratedFunc, TwoDependencyEntriesIndependent) {
  ArbitratedConfig cfg = arb_config(2);
  DepEntry e2;
  e2.id = "mt2";
  e2.base_address = 8;
  e2.dependency_number = 1;
  e2.producer_port = 0;
  e2.consumer_ports = {1};
  cfg.deps.push_back(e2);
  rtl::Design d;
  rtl::Module& m = gen(d, cfg);
  rtl::ModuleSim sim(m);
  sim.reset();
  // Produce to entry 1 (addr 8) only.
  ASSERT_TRUE(produce(sim, 0, 8, 11));
  EXPECT_EQ(sim.get("dep0_count"), 0u);
  EXPECT_EQ(sim.get("dep1_count"), 1u);
  // A consumer read at addr 4 blocks.
  sim.set_input("c_req1", 1);
  sim.set_input("c_addr1", 4);
  for (int i = 0; i < 4; ++i) {
    sim.settle();
    EXPECT_EQ(sim.get("c_grant1"), 0u);
    tick(sim);
  }
  sim.set_input("c_req1", 0);
  tick(sim);
  // At addr 8 it proceeds and returns the produced value.
  std::uint64_t out = 0;
  ASSERT_TRUE(consume(sim, 1, 8, &out));
  EXPECT_EQ(out, 11u);
}

TEST(ArbitratedFunc, SerialScanModeStillEnforcesDependencies) {
  ArbitratedConfig cfg = arb_config(2);
  cfg.use_cam = false;
  DepEntry e2;
  e2.id = "mt2";
  e2.base_address = 8;
  e2.dependency_number = 2;
  e2.producer_port = 0;
  e2.consumer_ports = {0, 1};
  cfg.deps.push_back(e2);
  rtl::Design d;
  rtl::Module& m = gen(d, cfg);
  rtl::ModuleSim sim(m);
  sim.reset();
  // Blocked read before produce, regardless of scan position.
  sim.set_input("c_req0", 1);
  sim.set_input("c_addr0", 8);
  for (int i = 0; i < 5; ++i) {
    sim.settle();
    EXPECT_EQ(sim.get("c_grant0"), 0u);
    tick(sim);
  }
  sim.set_input("c_req0", 0);
  tick(sim);
  // Produce at addr 8 and read it back; the serial scan adds up to
  // |entries| lookup cycles but preserves the guard semantics.
  ASSERT_TRUE(produce(sim, 0, 8, 5));
  std::uint64_t out = 0;
  ASSERT_TRUE(consume(sim, 0, 8, &out));
  EXPECT_EQ(out, 5u);
}

TEST(ArbitratedFunc, ReadDataMatchesProducedValue) {
  rtl::Design d;
  rtl::Module& m = gen(d, arb_config(2));
  rtl::ModuleSim sim(m);
  sim.reset();
  for (std::uint64_t round = 1; round <= 3; ++round) {
    std::uint64_t value = 100 + round;
    ASSERT_TRUE(produce(sim, 0, 4, value)) << "round " << round;
    for (int i = 0; i < 2; ++i) {
      std::uint64_t out = 0;
      ASSERT_TRUE(consume(sim, i, 4, &out)) << "round " << round;
      EXPECT_EQ(out, value) << "round " << round << " consumer " << i;
    }
  }
}

TEST(ArbitratedStructure, ConfigHelpers) {
  ArbitratedConfig cfg = arb_config(3);
  EXPECT_EQ(cfg.deps[0].consumer_ports.size(), 3u);
  EXPECT_EQ(counter_width(cfg.deps), 2);
}

}  // namespace
}  // namespace hicsync::memorg
