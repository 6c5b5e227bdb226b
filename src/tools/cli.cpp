#include "tools/cli.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>

#include "support/file.h"
#include "support/strings.h"

namespace hicsync::cli {

Args::Args(int argc, char** argv, std::string usage, int usage_code)
    : argc_(argc), argv_(argv), usage_(std::move(usage)),
      usage_code_(usage_code) {}

bool Args::next() {
  if (index_ + 1 >= argc_) return false;
  arg_ = argv_[++index_];
  has_inline_value_ = false;
  return true;
}

bool Args::option(std::string_view name) {
  if (arg_ == name) return true;
  if (arg_.size() <= name.size() || arg_.compare(0, name.size(), name) != 0 ||
      arg_[name.size()] != '=') {
    return false;
  }
  inline_value_ = arg_.substr(name.size() + 1);
  has_inline_value_ = true;
  return true;
}

bool Args::positional() const { return arg_.empty() || arg_[0] != '-'; }

std::string Args::next_value() {
  if (has_inline_value_) {
    has_inline_value_ = false;
    return inline_value_;
  }
  if (index_ + 1 >= argc_) std::exit(usage_error());
  return argv_[++index_];
}

template <typename T>
T Args::next_number(bool (*parse)(std::string_view, T*)) {
  const std::string text = next_value();
  T value{};
  if (!parse(text, &value)) {
    std::fprintf(stderr, "%s: malformed number '%s'\n",
                 arg_.substr(0, arg_.find('=')).c_str(), text.c_str());
    std::exit(usage_error());
  }
  return value;
}

std::uint64_t Args::next_u64() { return next_number(support::parse_u64); }
int Args::next_int() { return next_number(support::parse_int); }
double Args::next_double() { return next_number(support::parse_double); }

sim::OrgKind Args::next_org() {
  const std::string text = next_value();
  sim::OrgKind org = sim::OrgKind::Arbitrated;
  if (!sim::parse_org(text, &org)) {
    std::fprintf(stderr, "unknown organization '%s'\n", text.c_str());
    std::exit(usage_code_);
  }
  return org;
}

int Args::unhandled() const {
  if (arg_ != "--help" && arg_ != "-h") return unknown_option();
  usage();
  return 0;
}

int Args::unknown_option() const {
  std::fprintf(stderr, "unknown option '%s'\n", arg_.c_str());
  return usage_error();
}

int Args::usage_error() const {
  usage();
  return usage_code_;
}

void Args::usage() const { std::fputs(usage_.c_str(), stderr); }

bool read_file(const std::string& path, std::string* text) {
  std::string error;
  if (support::read_file(path, text, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

bool read_source(const std::string& input, std::string* text,
                 std::string* name) {
  *name = input == "-" ? "<stdin>" : input;
  if (input != "-") return read_file(input, text);
  std::ostringstream ss;
  ss << std::cin.rdbuf();
  *text = ss.str();
  return true;
}

bool write_file(const std::string& path, std::string_view body) {
  std::string error;
  if (support::write_file(path, body, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

bool write_output(const std::string& path, std::string_view body) {
  if (path.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return true;
  }
  if (!write_file(path, body)) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace hicsync::cli
