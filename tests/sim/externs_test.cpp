#include "sim/externs.h"

#include <gtest/gtest.h>

namespace hicsync::sim {
namespace {

TEST(Externs, RegisteredFunctionCalled) {
  ExternFuncs fns;
  fns.register_fn("add", [](const std::vector<std::uint64_t>& args) {
    std::uint64_t s = 0;
    for (auto a : args) s += a;
    return s;
  });
  EXPECT_TRUE(fns.has("add"));
  EXPECT_EQ(fns.eval("add", {1, 2, 3}), 6u);
}

TEST(Externs, FallbackIsDeterministic) {
  ExternFuncs a;
  ExternFuncs b;
  EXPECT_EQ(a.eval("mystery", {7, 9}), b.eval("mystery", {7, 9}));
}

TEST(Externs, FallbackDependsOnNameAndArgs) {
  ExternFuncs fns;
  EXPECT_NE(fns.eval("f", {1}), fns.eval("g", {1}));
  EXPECT_NE(fns.eval("f", {1}), fns.eval("f", {2}));
  EXPECT_NE(fns.eval("f", {1}), fns.eval("f", {1, 1}));
}

// The fallback hash feeds every unbound extern call in every simulation;
// these values pin its exact bits.
TEST(Externs, FallbackKnownAnswers) {
  ExternFuncs fns;
  EXPECT_EQ(fns.eval("", {}), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fns.eval("f", {}), 0x0629c6f72cf9eda1ull);
  EXPECT_EQ(fns.eval("f", {1}), 0x2c1a6fb5a5fdb21full);
  EXPECT_EQ(fns.eval("mystery", {7, 9}), 0xdb209f8af21ff742ull);
  EXPECT_EQ(fns.eval("\xff", {~0ull}), 0x2c1a6fb5a5fda85aull);
}

TEST(Externs, RegistrationOverridesFallback) {
  ExternFuncs fns;
  std::uint64_t fallback = fns.eval("f", {5});
  fns.register_fn("f", [](const auto&) { return 1u; });
  EXPECT_EQ(fns.eval("f", {5}), 1u);
  EXPECT_NE(fns.eval("f", {5}), fallback);
}

}  // namespace
}  // namespace hicsync::sim
