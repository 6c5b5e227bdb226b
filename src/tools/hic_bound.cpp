// hic-bound — abstract-interpretation bounds for hic programs.
//
//   hic-bound [options] <file.hic | ->
//
//   --org arbitrated|event-driven   analyze one organization (default: both)
//   --explain                       print per-derivation provenance traces
//   --infer                         infer producer/consumer pragmas (use-def)
//   --json                          machine-readable results on stdout
//
// Sound static bounds where hic-verify enumerates (docs/ANALYSIS.md):
// dependency-list occupancy vs the generated CAM capacity, per-consumer
// worst-case blocking (boundedness plus a saturating steps/cycles bound),
// and dead pseudo-ports with an estimated flip-flop saving. Every interval
// provably contains hic-verify's exact value, and the analysis completes
// at consumer counts where the checker exhausts any state budget: about
// 0.37 s per organization at 1024 consumers (hic-bench compile_corpus,
// bound.analyze_ms; docs/ANALYSIS.md).
//
// Exit status:
//   0  every bound holds (occupancy within capacity everywhere)
//   1  compile error (parse/sema reported errors)
//   2  usage error
//   6  a bound was exceeded (reported with a bound-* check ID)

#include <cstdio>
#include <string>
#include <vector>

#include "bound/bound.h"
#include "core/compiler.h"
#include "support/json.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

constexpr const char* kUsageBody =
    "  --org arbitrated|event-driven   (default: analyze both)\n"
    "  --explain\n"
    "  --infer\n"
    "  --json\n"
    // One source line: the usage_docs_in_sync ctest greps this exact table
    // here and in README.md.
    "exit codes: 0 bounds hold, 1 compile error, 2 usage, 6 bound exceeded\n";

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::vector<sim::OrgKind> orgs;
  bound::BoundOptions bopts;
  bopts.enabled = true;
  bool infer = false;
  bool json_out = false;

  cli::Args args(argc, argv,
                 support::format("usage: %s [options] <file.hic | ->\n%s",
                                 argv[0], kUsageBody));
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--org") {
      orgs.push_back(args.next_org());
    } else if (arg == "--explain") {
      bopts.explain = true;
    } else if (arg == "--infer") {
      infer = true;
    } else if (arg == "--json") {
      json_out = true;
    } else if (args.positional() || arg == "-") {
      if (!input.empty()) return args.usage_error();
      input = arg;
    } else {
      return args.unhandled();
    }
  }
  if (input.empty()) return args.usage_error();
  if (orgs.empty()) {
    orgs = {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven};
  }

  std::string source;
  std::string source_name;
  if (!cli::read_source(input, &source, &source_name)) return 2;

  // One front-end + allocation pass feeds every organization; lint-only
  // mode stops the flow after port planning — the clients need no RTL, so
  // a 1024-consumer program costs only the front end plus the analysis.
  core::CompileOptions copts;
  copts.source_name = source_name;
  copts.infer_dependencies = infer;
  copts.lint.enabled = true;
  copts.lint.only = true;
  core::Compiler compiler(copts);
  auto compiled = compiler.compile(source);
  if (!compiled->ok()) {
    std::fprintf(stderr, "%s", compiled->diags().str().c_str());
    return 1;
  }

  support::DiagnosticEngine diags;
  diags.set_source_name(source_name);
  std::size_t exceeded = 0;
  std::vector<bound::BoundResult> results;
  for (sim::OrgKind org : orgs) {
    bound::BoundResult br = bound::run_bound(
        compiled->program(), compiled->sema(), compiled->memory_map(),
        compiled->port_plans(), org, bopts);
    exceeded += bound::report_findings(br, compiled->sema(), diags);
    results.push_back(std::move(br));
  }

  if (json_out) {
    support::JsonWriter w;
    w.begin_object();
    w.key("source").value(source_name);
    w.key("results").begin_array();
    for (const bound::BoundResult& br : results) w.raw(br.json());
    w.end_array();
    w.key("diagnostics").raw(diags.json());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    if (!diags.diagnostics().empty()) {
      std::fprintf(stderr, "%s", diags.str().c_str());
    }
    for (const bound::BoundResult& br : results) {
      std::printf("%s", br.text().c_str());
      if (bopts.explain) {
        std::string ex = br.explain_text();
        if (!ex.empty()) std::printf("%s", ex.c_str());
      }
    }
  }

  return exceeded > 0 ? 6 : 0;
}
