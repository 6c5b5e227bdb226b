// hic-cover — coverage-DB merging, reporting and threshold gating.
//
//   hic-cover [options] <db.jsonl>...
//
//   --list                  print the covergroup catalogue and exit
//   --report=md|json        render the merged coverage + hole report
//                           (md is the default action when no mode given)
//   --merge                 write the merged DBs as one JSONL record
//   --out <path>            write the report/merged record there
//                           (default stdout)
//   --check                 gate: fail when bin coverage < --min
//   --min <pct>             threshold for --check (required with it)
//   --group <prefix>        restrict --check to covergroups whose name
//                           starts with <prefix> (e.g. arbitrated.fsm.state)
//
// Inputs are JSONL coverage DBs appended by `hicc --cover=out.jsonl`; any
// number of files/records merge (union of groups and bins, hits sum).
// Zero-hit bins survive the round trip, so holes stay visible across runs.
//
// Exit status:
//   0  success / coverage at or above the threshold
//   1  --check found coverage below the threshold
//   2  usage error
//   3  no coverage data (no input files, unreadable file, malformed or
//      schema-skewed record)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cover/db.h"
#include "cover/registry.h"
#include "cover/report.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

constexpr const char* kUsageBody =
    "  --list\n"
    "  --report=md|json [--out <path>]\n"
    "  --merge [--out <path>]\n"
    "  --check --min <pct> [--group <prefix>]\n"
    "exit codes: 0 ok, 1 below threshold, 2 usage, 3 no coverage data\n";

void list_covergroups() {
  std::printf("registered covergroups (qualified as <org>.<id>):\n");
  for (const auto& info : cover::CoverRegistry::builtin().infos()) {
    const char* scope = info.arbitrated_only    ? " [arbitrated only]"
                        : info.eventdriven_only ? " [event-driven only]"
                                                : "";
    std::printf("  %-20s %s%s\n", info.id, info.description, scope);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string report_format;
  std::string out_path;
  std::string group_prefix;
  bool list = false;
  bool merge = false;
  bool check = false;
  double min_pct = -1.0;

  cli::Args args(argc, argv,
                 support::format("usage: %s [options] <db.jsonl>...\n%s",
                                 argv[0], kUsageBody));
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--list") {
      list = true;
    } else if (arg == "--report" || arg.rfind("--report=", 0) == 0) {
      report_format =
          arg == "--report" ? "md" : arg.substr(std::strlen("--report="));
      if (report_format != "md" && report_format != "json") {
        std::fprintf(stderr, "unknown --report format '%s'\n",
                     report_format.c_str());
        return 2;
      }
    } else if (arg == "--merge") {
      merge = true;
    } else if (arg == "--out") {
      out_path = args.next_value();
    } else if (arg == "--check") {
      check = true;
    } else if (args.option("--min")) {
      min_pct = args.next_double();
    } else if (args.option("--group")) {
      group_prefix = args.next_value();
    } else if (args.positional()) {
      inputs.push_back(arg);
    } else {
      return args.unhandled();
    }
  }

  if (list) {
    list_covergroups();
    if (inputs.empty() && !merge && !check && report_format.empty()) {
      return 0;
    }
  }
  if (check && min_pct < 0.0) {
    std::fprintf(stderr, "--check needs --min <pct>\n");
    return args.usage_error();
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "no coverage DB files given\n");
    args.usage();
    return 3;
  }

  cover::CoverageModel model;
  int total_records = 0;
  for (const std::string& path : inputs) {
    std::string error;
    int records = 0;
    if (!cover::load_file(path, &model, &error, &records)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 3;
    }
    total_records += records;
  }
  if (total_records == 0) {
    std::fprintf(stderr, "no coverage records in the given files\n");
    return 3;
  }

  if (merge) {
    const std::string record =
        cover::to_record(model, "merged", "merged") + "\n";
    if (!cli::write_output(out_path, record)) return 2;
  }

  // Rendering the report is the default action.
  if (!report_format.empty() || (!merge && !check)) {
    const std::string body = report_format == "json"
                                 ? cover::emit_report_json(model) + "\n"
                                 : cover::emit_report_md(model);
    if (!cli::write_output(out_path, body)) return 2;
  }

  if (check) {
    const cover::CheckResult result =
        cover::check_coverage(model, min_pct, group_prefix);
    if (!result.ok) {
      std::fprintf(stderr, "coverage check FAILED:\n%s",
                   result.detail.c_str());
      return 1;
    }
    std::printf("coverage check ok (%s >= %s over %d record(s))\n",
                group_prefix.empty() ? "overall" : group_prefix.c_str(),
                cover::format_pct(min_pct).c_str(), total_records);
  }
  return 0;
}
