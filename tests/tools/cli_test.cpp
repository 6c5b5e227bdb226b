// cli::Args, the argv walker every tool main shares, and the source/output
// helpers beside it.

#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hicsync::cli {
namespace {

/// Owns an argv built from string literals.
class Argv {
 public:
  Argv(std::initializer_list<const char*> words)
      : words_(words.begin(), words.end()) {
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

TEST(CliArgs, WalksOptionsValuesAndPositionals) {
  Argv a{"tool", "--n", "42", "--ctx=-3", "--pct", "1.5", "in.hic", "-",
         "--org", "event-driven", "--big", "18446744073709551615"};
  Args args(a.argc(), a.argv(), "usage\n");
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.arg(), "--n");
  EXPECT_FALSE(args.positional());
  EXPECT_EQ(args.next_int(), 42);
  ASSERT_TRUE(args.next());
  EXPECT_FALSE(args.option("--ct"));
  EXPECT_TRUE(args.option("--ctx"));
  EXPECT_EQ(args.next_int(), -3);
  ASSERT_TRUE(args.next());
  EXPECT_TRUE(args.option("--pct"));  // bare form takes the next argument
  EXPECT_DOUBLE_EQ(args.next_double(), 1.5);
  ASSERT_TRUE(args.next());
  EXPECT_TRUE(args.positional());
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.arg(), "-");
  EXPECT_FALSE(args.positional());  // stdin is each tool's own choice
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.next_org(), sim::OrgKind::EventDriven);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.next_u64(), ~0ull);
  EXPECT_FALSE(args.next());
}

TEST(CliArgs, HelpAndUnknownOptionsUseTheToolsUsageCode) {
  Argv a{"tool", "--help", "-h", "--bogus"};
  Args args(a.argc(), a.argv(), "usage text\n", 3);
  testing::internal::CaptureStderr();
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.unhandled(), 0);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.unhandled(), 0);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.unhandled(), 3);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "usage text\nusage text\nunknown option '--bogus'\nusage text\n");
}

TEST(CliArgsDeathTest, MalformedNumbersAreUsageErrors) {
  for (const char* bad : {"abc", "2x", "", "-1"}) {
    Argv a{"tool", "--n", bad};
    Args args(a.argc(), a.argv(), "usage\n", 3);
    ASSERT_TRUE(args.next());
    EXPECT_EXIT(args.next_u64(), testing::ExitedWithCode(3),
                "--n: malformed number")
        << bad;
  }
  Argv a{"tool", "--ctx=1.5", "--pct", "inf"};
  Args args(a.argc(), a.argv(), "usage\n");
  ASSERT_TRUE(args.next());
  ASSERT_TRUE(args.option("--ctx"));
  EXPECT_EXIT(args.next_int(), testing::ExitedWithCode(2),
              "--ctx: malformed number '1.5'");
  ASSERT_TRUE(args.next());
  EXPECT_EXIT(args.next_double(), testing::ExitedWithCode(2),
              "--pct: malformed number 'inf'");
}

TEST(CliArgsDeathTest, MissingValuesAndUnknownOrgsAreUsageErrors) {
  Argv a{"tool", "--org", "fast", "--out"};
  Args args(a.argc(), a.argv(), "the usage\n");
  ASSERT_TRUE(args.next());
  EXPECT_EXIT(args.next_org(), testing::ExitedWithCode(2),
              "unknown organization 'fast'");
  ASSERT_TRUE(args.next());  // "fast" (the death test ran in a child)
  ASSERT_TRUE(args.next());
  EXPECT_EXIT(args.next_value(), testing::ExitedWithCode(2), "the usage");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CliFiles, ReadSourceNamesFilesAndRejectsMissingOnes) {
  const std::string path = HICSYNC_TEST_BINDIR "/cli_source.hic";
  ASSERT_TRUE(write_file(path, "thread t () {}\n"));
  std::string text;
  std::string name;
  ASSERT_TRUE(read_source(path, &text, &name));
  EXPECT_EQ(text, "thread t () {}\n");
  EXPECT_EQ(name, path);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(read_source(path + ".missing", &text, &name));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot open '" + path + ".missing'\n");
}

TEST(CliFiles, WriteOutputGoesToStdoutOrAnnouncesTheFile) {
  testing::internal::CaptureStdout();
  EXPECT_TRUE(write_output("", "body\n"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "body\n");

  const std::string path = HICSYNC_TEST_BINDIR "/cli_output.txt";
  testing::internal::CaptureStdout();
  EXPECT_TRUE(write_output(path, "file body"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  EXPECT_EQ(slurp(path), "file body");

  testing::internal::CaptureStderr();
  EXPECT_FALSE(write_output(HICSYNC_TEST_BINDIR, "x"));  // a directory
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            std::string("cannot write '") + HICSYNC_TEST_BINDIR + "'\n");
}

}  // namespace
}  // namespace hicsync::cli
