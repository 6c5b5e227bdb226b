// Known-answer tests for the workload hashes. The service seeds, the
// differential baselines and hic-bench's golden register values all depend
// on these exact bits, so any change to the hashing code must keep them.

#include "rt/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rt/artifact.h"

namespace hicsync::rt {
namespace {

TEST(WorkloadHash, SeedInitIsTheFnvOffsetBasis) {
  EXPECT_EQ(kWorkloadSeedInit, 14695981039346656037ull);
  EXPECT_EQ(fnv1a64(""), kWorkloadSeedInit);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(WorkloadHash, FoldSeedKnownAnswers) {
  const std::uint64_t none[] = {0};
  EXPECT_EQ(fold_seed(kWorkloadSeedInit, none, 0), kWorkloadSeedInit);
  const std::uint64_t one[] = {7};
  EXPECT_EQ(fold_seed(kWorkloadSeedInit, one, 1), 0x72ea16016cadb700ull);
  const std::uint64_t two[] = {7, 9};
  EXPECT_EQ(fold_seed(kWorkloadSeedInit, two, 2), 0x3e99452eefbe733aull);
  const std::uint64_t big[] = {~0ull, 0, 1ull << 63};
  EXPECT_EQ(fold_seed(0, big, 3), 0xaac09379a5e320c1ull);
  // Folding word by word equals folding the whole list.
  EXPECT_EQ(fold_seed(fold_seed(kWorkloadSeedInit, one, 1), two + 1, 1),
            fold_seed(kWorkloadSeedInit, two, 2));
}

TEST(WorkloadHash, SeededExternKnownAnswers) {
  core::CompileOptions options;
  options.source_name = "fig1.hic";
  auto compiled = core::Compiler(options).compile(netapp::figure1_source());
  ASSERT_TRUE(compiled->ok()) << compiled->diags().str();
  auto sim = compiled->make_simulator();
  seed_externs(*sim, compiled->program(), 12345);
  ASSERT_TRUE(sim->externs().has("f"));
  EXPECT_EQ(sim->externs().eval("f", {}), 0x0e4f3967c8d87a74ull);
  EXPECT_EQ(sim->externs().eval("f", {1, 2}), 0xfb3a1dd5170373ffull);
  EXPECT_EQ(sim->externs().eval("g", {1, 2}), 0xfedb9cee26c1f558ull);
  seed_externs(*sim, compiled->program(), kWorkloadSeedInit);
  EXPECT_EQ(sim->externs().eval("h", {0, ~0ull}), 0x2c10501ef18c57adull);
}

}  // namespace
}  // namespace hicsync::rt
