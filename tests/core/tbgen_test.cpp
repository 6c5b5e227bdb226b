#include "core/tbgen.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netapp/scenarios.h"
#include "support/file.h"
#include "support/hash.h"

#ifndef HICSYNC_EXAMPLES_DIR
#error "HICSYNC_EXAMPLES_DIR must point at the examples/ directory"
#endif

namespace hicsync::core {
namespace {

TEST(TestbenchGen, ArbitratedBundleContainsDutAndChecks) {
  auto r = Compiler().compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok());
  std::string bundle = generate_controller_testbench(*r);
  EXPECT_NE(bundle.find("module memorg_bram0 ("), std::string::npos);
  EXPECT_NE(bundle.find("module tb_memorg_bram0;"), std::string::npos);
  EXPECT_NE(bundle.find("memorg_bram0 dut ("), std::string::npos);
  // The exchange exercises produce + both consumers: grant/valid checks
  // for every pseudo-port appear among the expectations.
  EXPECT_NE(bundle.find("d_grant0"), std::string::npos);
  EXPECT_NE(bundle.find("c_valid0"), std::string::npos);
  EXPECT_NE(bundle.find("c_valid1"), std::string::npos);
  EXPECT_NE(bundle.find("PASS"), std::string::npos);
}

TEST(TestbenchGen, EventDrivenBundle) {
  CompileOptions options;
  options.organization = sim::OrgKind::EventDriven;
  auto r = Compiler(options).compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok());
  std::string bundle = generate_controller_testbench(*r);
  EXPECT_NE(bundle.find("p_grant0"), std::string::npos);
  EXPECT_NE(bundle.find("ev_c0"), std::string::npos);
  EXPECT_NE(bundle.find("PASS"), std::string::npos);
}

TEST(TestbenchGen, CoversEveryDependency) {
  // Two dependencies on one BRAM: the trace exercises both base addresses.
  const char* src = R"(
    thread p () {
      int a, b;
      #consumer{d1, [q,u]}
      a = 1;
      #consumer{d2, [q,v]}
      b = 2;
    }
    thread q () {
      int u, v;
      #producer{d1, [p,a]}
      u = a;
      #producer{d2, [p,b]}
      v = b;
    }
  )";
  for (sim::OrgKind kind :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    CompileOptions options;
    options.organization = kind;
    auto r = Compiler(options).compile(src);
    ASSERT_TRUE(r->ok()) << r->diags().str();
    std::string bundle = generate_controller_testbench(*r);
    // Two produced values c0de and c0df are driven.
    EXPECT_NE(bundle.find("64'hc0de"), std::string::npos)
        << sim::to_string(kind);
    EXPECT_NE(bundle.find("64'hc0df"), std::string::npos)
        << sim::to_string(kind);
  }
}

// Known answers: FNV-1a 64 of the full {dut + testbench} bundle of every
// controller of the committed examples under both organizations. Any change
// to the generated netlist, the exchange the generator drives or the
// recorder's rendering moves a digest.
TEST(TestbenchGen, BundlesMatchKnownDigests) {
  struct KnownBundles {
    const char* example;
    sim::OrgKind org;
    std::vector<std::string> digests;  // one per BRAM, in id order
  };
  const KnownBundles known[] = {
      {"fig1", sim::OrgKind::Arbitrated, {"de673e01b9c32171"}},
      {"fig1", sim::OrgKind::EventDriven, {"3e1674d1a1302911"}},
      {"pipeline",
       sim::OrgKind::Arbitrated,
       {"454da7d614767314", "8c27cf6677db55a1"}},
      {"pipeline",
       sim::OrgKind::EventDriven,
       {"0260582fa3a84be0", "179c5d58a1446705"}},
      {"stress8", sim::OrgKind::Arbitrated, {"f9904b65146aa605"}},
      {"stress8", sim::OrgKind::EventDriven, {"7ed1801912415a86"}},
      {"stress_shared", sim::OrgKind::Arbitrated, {"eb1f0165bd9b7167"}},
      {"stress_shared", sim::OrgKind::EventDriven, {"f0721e4508988e21"}},
  };
  for (const KnownBundles& k : known) {
    std::string source;
    std::string error;
    ASSERT_TRUE(support::read_file(std::string(HICSYNC_EXAMPLES_DIR) + "/" +
                                       k.example + ".hic",
                                   &source, &error))
        << error;
    CompileOptions options;
    options.organization = k.org;
    auto r = Compiler(options).compile(source);
    ASSERT_TRUE(r->ok()) << k.example << "\n" << r->diags().str();
    std::vector<std::string> digests;
    for (const memalloc::BramInstance& b : r->memory_map().brams()) {
      digests.push_back(support::hex64(
          support::fnv1a64(generate_controller_testbench(*r, b.id))));
    }
    EXPECT_EQ(digests, k.digests)
        << k.example << " " << sim::to_string(k.org);
  }
}

TEST(TestbenchGen, UnknownBramThrows) {
  auto r = Compiler().compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok());
  EXPECT_THROW((void)generate_controller_testbench(*r, 42),
               std::runtime_error);
}

}  // namespace
}  // namespace hicsync::core
