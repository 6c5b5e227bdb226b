// The command-line skeleton every hic tool main shares: an argv walker
// plus source reading and output writing. It has no option tables; each
// main's own if/else chain over arg() is its flag list:
//
//   cli::Args args(argc, argv, usage_text);
//   while (args.next()) {
//     if (args.arg() == "--simulate") passes = args.next_int();
//     else if (args.positional()) input = args.arg();
//     else return args.unhandled();  // --help, or an unknown option
//   }
//
// A missing value, a malformed number or an unknown --org name prints to
// stderr and exits with the tool's usage code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/system.h"

namespace hicsync::cli {

class Args {
 public:
  /// Walks argv[1..argc). `usage` is printed verbatim to stderr on --help
  /// and on usage errors; `usage_code` is the tool's usage exit status.
  Args(int argc, char** argv, std::string usage, int usage_code = 2);

  /// Advances to the next argument; false once argv is exhausted.
  bool next();
  [[nodiscard]] const std::string& arg() const { return arg_; }
  /// True for `name` and for `name=value`; the next next_*() call then
  /// returns `value` instead of the following argument.
  bool option(std::string_view name);
  /// True for an argument that does not start with '-'.
  [[nodiscard]] bool positional() const;

  /// The current option's value. Missing: prints the usage and exits.
  std::string next_value();
  /// next_value() through support::parse_u64 / parse_int / parse_double;
  /// malformed: prints "<flag>: malformed number '<text>'" and the usage,
  /// and exits.
  std::uint64_t next_u64();
  int next_int();
  double next_double();
  /// next_value() through sim::parse_org; unknown: reports it and exits.
  sim::OrgKind next_org();

  /// The end of every option chain: --help / -h prints the usage and
  /// returns 0, anything else is an unknown_option().
  [[nodiscard]] int unhandled() const;
  /// Reports the current argument as unknown; returns usage_error().
  [[nodiscard]] int unknown_option() const;
  /// Prints the usage and returns the usage code.
  [[nodiscard]] int usage_error() const;
  void usage() const;

 private:
  template <typename T>
  T next_number(bool (*parse)(std::string_view, T*));

  int argc_;
  char** argv_;
  int index_ = 0;
  std::string arg_;
  std::string inline_value_;
  bool has_inline_value_ = false;
  std::string usage_;
  int usage_code_;
};

/// support::read_file, reporting failure ("cannot open '<path>'") on
/// stderr.
bool read_file(const std::string& path, std::string* text);
/// A tool's source input: the file `input`, or stdin for "-". *name is
/// the diagnostic source name ("<stdin>" for stdin).
bool read_source(const std::string& input, std::string* text,
                 std::string* name);
/// support::write_file, reporting failure ("cannot write '<path>'") on
/// stderr.
bool write_file(const std::string& path, std::string_view body);
/// `body` to stdout when `path` is empty; else write_file() and a
/// "wrote <path>" line on stdout.
bool write_output(const std::string& path, std::string_view body);

}  // namespace hicsync::cli
