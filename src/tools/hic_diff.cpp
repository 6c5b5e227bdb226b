// hic-diff — cross-run differencing of hic run bundles.
//
//   hic-diff [options] <bundleA> <bundleB>
//
//   --emit=text|md|json     report rendering (default text)
//   --out <path>            write the report there (default stdout)
//   --context <n>           raw events of context around the first
//                           divergence (default 5)
//   --compare-blocking      also align per-thread block/unblock streams
//                           (off by default: blocking dynamics are timing,
//                           not semantics, across organizations)
//
// Bundles are directories written by `hicc --trace=bundle[,out=DIR]`
// (manifest.json + events.jsonl + metrics.json + optional cover.jsonl).
// The traces are aligned semantically — by dependency round, FSM-state
// sequence and (opt-in) blocking sequence, never by raw cycle — and every
// metric (per-port utilization, stall attribution, round-latency
// percentiles, occupancy, coverage, area/Fmax model) is tabulated as a
// §4-style A/B/delta comparison. See docs/OBSERVABILITY.md, "Cross-run
// differencing".
//
// Exit status:
//   0  semantically equal, no metric deltas
//   1  metric deltas only (traces align)
//   2  trace divergence (first-divergence forensics in the report)
//   3  usage error or unreadable bundle

#include <cstdio>
#include <string>
#include <vector>

#include "diffview/delta.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

// Single source of truth for the exit-code table: README.md's hic-diff
// section must carry the same line (hic-diff.usage_docs_in_sync greps
// both).
constexpr const char* kUsageBody =
    "  --emit=text|md|json [--out <path>]\n"
    "  --context <n>\n"
    "  --compare-blocking\n"
    // NOLINTNEXTLINE(whitespace/line_length) — kept on one line so the
    // usage_docs_in_sync test can grep the whole table verbatim.
    "exit codes: 0 equal, 1 metric deltas only, 2 trace divergence, 3 usage or unreadable bundle\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string emit = "text";
  std::string out_path;
  diffview::DeltaOptions options;

  cli::Args args(argc, argv,
                 support::format("usage: %s [options] <bundleA> <bundleB>\n%s",
                                 argv[0], kUsageBody),
                 3);
  while (args.next()) {
    const std::string& arg = args.arg();
    if (args.option("--emit")) {
      emit = args.next_value();
      if (emit != "text" && emit != "md" && emit != "json") {
        std::fprintf(stderr, "unknown --emit format '%s'\n", emit.c_str());
        return 3;
      }
    } else if (arg == "--out") {
      out_path = args.next_value();
    } else if (args.option("--context")) {
      options.align.context = args.next_int();
    } else if (arg == "--compare-blocking") {
      options.align.compare_blocking = true;
    } else if (args.positional()) {
      inputs.push_back(arg);
    } else {
      return args.unhandled();
    }
  }

  if (inputs.size() != 2) {
    std::fprintf(stderr, "expected exactly two bundle directories\n");
    return args.usage_error();
  }

  diffview::Bundle a;
  diffview::Bundle b;
  std::string error;
  if (!diffview::load_bundle(inputs[0], &a, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 3;
  }
  if (!diffview::load_bundle(inputs[1], &b, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 3;
  }

  const diffview::DiffReport report = diffview::diff_bundles(a, b, options);
  const std::string body = emit == "md"     ? report.markdown()
                           : emit == "json" ? report.json() + "\n"
                                            : report.text();
  if (out_path.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
  } else if (!cli::write_file(out_path, body)) {
    return 3;
  }
  return report.exit_code();
}
