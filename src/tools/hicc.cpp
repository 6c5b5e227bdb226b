// hicc — the hic compiler command-line driver.
//
//   hicc [options] <file.hic | ->
//
//   --org arbitrated|event-driven   memory organization (default arbitrated)
//   --emit-verilog <out.v>          write the generated controllers' RTL
//   --emit-artifact <out.hicbin>    write a hic-rt program artifact (the
//                                   loadable form hic-rtd serves; see
//                                   docs/RUNTIME.md)
//   --report                        print the compilation report (default)
//   --no-report
//   --simulate <passes>             run the program cycle-accurately
//   --chain                         enable operation chaining in synthesis
//   --no-cam                        serial-scan dependency list (arbitrated)
//   --infer                         infer producer/consumer pragmas (use-def)
//   --dump-fsm                      print each thread's synthesized FSM
//   --target-mhz <f>                timing target for the report
//   --max-cycles <n>                simulation budget (default 100000)
//
// Observability (hic-trace / hic-perf; see docs/OBSERVABILITY.md):
//   --trace=kind[,out=PATH]         attach a trace sink to the simulation;
//                                   kind is metrics|vcd|chrome|bundle,
//                                   repeatable. Implies --simulate 1 when
//                                   --simulate is absent. Default outputs:
//                                   metrics to stdout, vcd to
//                                   <input stem>.vcd, chrome to
//                                   <input stem>.trace.json, bundle to the
//                                   <input stem>.bundle/ directory (a
//                                   hic-diff run bundle: manifest + full
//                                   event capture + metrics snapshot +
//                                   coverage record when --cover is on)
//   --profile[=out.json]            profile the compiler itself: per-pass
//                                   wall time, peak RSS and AST/netlist
//                                   node counts. Text report to stdout; the
//                                   =out.json form writes JSON instead.
//                                   Composes with --trace and --lint-only
//                                   (the profile still prints on exit 4)
//   --cover[=out.jsonl]             functional coverage (hic-cover): declare
//                                   the covergroup model for the compiled
//                                   program, attach a CoverageSink to the
//                                   simulation, and print the coverage +
//                                   hole report. The =out.jsonl form appends
//                                   one record to the coverage DB instead
//                                   (merge/report/gate with hic-cover).
//                                   Implies --simulate 1; composes with
//                                   --trace and --profile
//
// Static analysis (hic-lint; see docs/DIAGNOSTICS.md for the check
// catalogue):
//   --lint                          run the lint checks alongside compilation
//   --lint-only                     lint + port planning, skip RTL generation
//   -W<check>                       promote <check> findings to errors
//   -Wno-<check>                    disable <check>
//   --Werror                        every warning-severity finding is an error
//   --diag-format text|json         diagnostic rendering; json is the CI
//                                   interface (machine-readable, stdout)
//
// Verification (hic-verify; see docs/VERIFICATION.md — the standalone
// hic-verify tool adds counterexample replay and both-organization runs):
//   --verify                        model-check the program: deadlock-freedom,
//                                   consume-before-produce, blocking bounds,
//                                   CAM occupancy for the selected --org
//   --verify-max-states <n>         state budget (default 1000000); exhausting
//                                   it makes unproved properties inconclusive
//
// Static bounds (hic-bound; see docs/ANALYSIS.md — the standalone hic-bound
// tool adds --explain provenance traces and both-organization runs):
//   --bound                         abstract-interpretation bounds: dependency-
//                                   list occupancy vs CAM capacity, worst-case
//                                   blocking, dead ports. Composes with
//                                   --lint-only (no RTL needed) and feeds
//                                   sizing hints to the generators
//   --no-bound-sizing               report bounds but leave the generated
//                                   dependency lists untouched
//
// Netlist checks (hic-nlint; see docs/ANALYSIS.md — the standalone
// hic-nlint tool adds --check selection, --explain proof narration, --json
// and the seeded bug fixtures):
//   --nlint                         structural checks over the generated
//                                   controllers: comb loops, driver
//                                   conflicts, width consistency, one-hot
//                                   mutual-exclusion proofs, reset coverage,
//                                   census vs the area model. Composes with
//                                   --lint-only (the controllers are still
//                                   generated so the netlist pass can run)
//
// Exit status:
//   0  success
//   1  compile error (parse/sema/analysis reported errors)
//   2  usage error (bad flags, unreadable input, unknown lint check)
//   3  simulation did not converge within the cycle budget
//   4  lint findings at error severity (including -W/--Werror promotions)
//   5  verify refuted a property (reported with a verify-* check ID)
//   6  a hic-bound bound was exceeded (reported with a bound-* check ID)
//   7  hic-nlint found a structural defect (reported with an nlint-* check
//      ID)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/compiler.h"
#include "core/tbgen.h"
#include "core/tracerun.h"
#include "cover/model.h"
#include "diffview/bundle.h"
#include "perf/profile.h"
#include "rt/artifact.h"
#include "support/strings.h"
#include "tools/cli.h"
#include "trace/options.h"

using namespace hicsync;

namespace {

// Single source of truth for the option list and exit-code table: the
// header comment above, README.md's hicc section, and this string must
// agree (tests/core/cli grep for --trace in all three).
constexpr const char* kUsageBody =
    "  --org arbitrated|event-driven\n"
    "  --emit-verilog <out.v>\n"
    "  --emit-testbench <out_tb.v>\n"
    "  --emit-artifact <out.hicbin>\n"
    "  --report | --no-report\n"
    "  --simulate <passes>\n"
    "  --trace=metrics|vcd|chrome|bundle[,out=PATH]   (repeatable)\n"
    "  --profile[=out.json]\n"
    "  --cover[=out.jsonl]\n"
    "  --chain\n"
    "  --no-cam\n"
    "  --infer\n"
    "  --dump-fsm\n"
    "  --target-mhz <f>\n"
    "  --max-cycles <n>\n"
    "  --lint | --lint-only\n"
    "  -W<check> | -Wno-<check> | --Werror\n"
    "  --verify [--verify-max-states <n>]\n"
    "  --bound [--no-bound-sizing]\n"
    "  --nlint\n"
    "  --diag-format text|json\n"
    // NOLINTNEXTLINE(whitespace/line_length) — kept on one line so the
    // usage_docs_in_sync test can grep the whole table verbatim.
    "exit codes: 0 ok, 1 compile error, 2 usage, 3 sim timeout, 4 lint errors, 5 verify refuted, 6 bound exceeded, 7 nlint findings\n";

void list_checks() {
  std::fprintf(stderr, "known lint checks:\n");
  for (const auto& info :
       analysis::lint::LintRegistry::builtin().check_infos()) {
    std::fprintf(stderr, "  %-24s %s (default %s)\n", info.id,
                 info.description, support::to_string(info.default_severity));
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::CompileOptions options;
  std::string input;
  std::string verilog_out;
  std::string testbench_out;
  std::string artifact_out;
  bool report = true;
  bool report_explicit = false;
  bool dump_fsm = false;
  bool json_diags = false;
  int simulate_passes = 0;
  std::uint64_t max_cycles = 100000;
  trace::TraceOptions trace_opts;
  bool profile = false;
  std::string profile_out;
  bool cover = false;
  std::string cover_out;
  perf::PassTimer profiler;

  auto known_check = [](const std::string& id) {
    return analysis::lint::LintRegistry::builtin().find(id) != nullptr;
  };
  auto diag_format = [&](const std::string& fmt) {
    if (fmt != "json" && fmt != "text") {
      std::fprintf(stderr, "unknown diagnostic format '%s'\n", fmt.c_str());
      return false;
    }
    json_diags = fmt == "json";
    return true;
  };

  cli::Args args(argc, argv,
                 support::format("usage: %s [options] <file.hic | ->\n%s",
                                 argv[0], kUsageBody));
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--org") {
      options.organization = args.next_org();
    } else if (arg == "--emit-verilog") {
      verilog_out = args.next_value();
    } else if (arg == "--emit-testbench") {
      testbench_out = args.next_value();
    } else if (arg == "--emit-artifact") {
      artifact_out = args.next_value();
    } else if (arg == "--report") {
      report = true;
      report_explicit = true;
    } else if (arg == "--no-report") {
      report = false;
      report_explicit = true;
    } else if (arg == "--simulate") {
      simulate_passes = args.next_int();
    } else if (args.option("--trace")) {
      const std::string spec = args.next_value();
      std::string error;
      if (!trace::parse_trace_spec(spec, trace_opts, &error)) {
        std::fprintf(stderr, "bad --trace spec '%s': %s\n", spec.c_str(),
                     error.c_str());
        return 2;
      }
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile = true;
      profile_out = arg.substr(std::strlen("--profile="));
      if (profile_out.empty()) {
        std::fprintf(stderr, "--profile= needs an output path\n");
        return 2;
      }
    } else if (arg == "--cover") {
      cover = true;
    } else if (arg.rfind("--cover=", 0) == 0) {
      cover = true;
      cover_out = arg.substr(std::strlen("--cover="));
      if (cover_out.empty()) {
        std::fprintf(stderr, "--cover= needs an output path\n");
        return 2;
      }
    } else if (arg == "--chain") {
      options.schedule.chain_states = true;
    } else if (arg == "--no-cam") {
      options.use_cam = false;
    } else if (arg == "--infer") {
      options.infer_dependencies = true;
    } else if (arg == "--dump-fsm") {
      dump_fsm = true;
    } else if (arg == "--target-mhz") {
      options.target_clock_mhz = args.next_double();
    } else if (arg == "--max-cycles") {
      max_cycles = args.next_u64();
    } else if (arg == "--verify") {
      options.verify.enabled = true;
    } else if (arg == "--verify-max-states") {
      options.verify.enabled = true;
      options.verify.max_states = args.next_u64();
    } else if (arg == "--bound") {
      options.bound.enabled = true;
    } else if (arg == "--no-bound-sizing") {
      options.bound.enabled = true;
      options.bound.apply_sizing = false;
    } else if (arg == "--nlint") {
      options.nlint.enabled = true;
    } else if (arg == "--lint") {
      options.lint.enabled = true;
    } else if (arg == "--lint-only") {
      options.lint.enabled = true;
      options.lint.only = true;
    } else if (arg == "--Werror") {
      options.lint.enabled = true;
      options.lint.werror = true;
    } else if (arg.rfind("-W", 0) == 0 && arg.size() > 2 && arg[2] != '-') {
      // -Wno-<check> disables, -W<check> promotes to error.
      const bool disable = arg.rfind("-Wno-", 0) == 0;
      std::string id = arg.substr(disable ? 5 : 2);
      if (!known_check(id)) {
        std::fprintf(stderr, "unknown lint check '%s'\n", id.c_str());
        list_checks();
        return 2;
      }
      options.lint.enabled = true;
      (disable ? options.lint.disabled : options.lint.as_error).push_back(id);
    } else if (args.option("--diag-format")) {
      if (!diag_format(args.next_value())) return 2;
    } else if (args.positional() || arg == "-") {
      if (!input.empty()) return args.usage_error();
      input = arg;
    } else {
      return args.unhandled();
    }
  }
  if (input.empty()) return args.usage_error();
  // Lint-only runs are report-less by default: the findings are the output.
  if (options.lint.only && !report_explicit) report = false;

  std::string source;
  if (!cli::read_source(input, &source, &options.source_name)) return 2;

  if (profile) options.profiler = &profiler;
  core::Compiler compiler(options);
  auto result = compiler.compile(source);

  // All diagnostics at once, in deterministic (file, line, col, severity)
  // order. JSON goes to stdout — it is the machine interface — while the
  // human-readable rendering stays on stderr.
  if (json_diags) {
    std::printf("%s", result->diags().json().c_str());
  } else if (!result->diags().diagnostics().empty()) {
    std::fprintf(stderr, "%s", result->diags().str().c_str());
  }

  // The profile prints for every completed compile() — including failed
  // compiles and --lint-only runs that will exit 4 below; a profile of the
  // front end alone is still a profile.
  if (profile &&
      !cli::write_output(profile_out, profile_out.empty() ? profiler.text()
                                                          : profiler.json())) {
    return 2;
  }

  if (!result->ok()) return 1;

  if (report) {
    std::printf("%s", core::render_report(*result).c_str());
  }

  if (dump_fsm) {
    for (const auto& fsm : result->fsms()) {
      std::printf("%s\n", fsm.str().c_str());
    }
  }

  // Verify summary on stdout (human form only; --diag-format json keeps
  // stdout machine-readable and the findings already carry the verdicts).
  if (!json_diags) {
    for (const auto& vr : result->verify_results()) {
      std::printf("%s", vr.text().c_str());
    }
    for (const auto& br : result->bound_results()) {
      std::printf("%s", br.text().c_str());
    }
    if (options.nlint.enabled) {
      std::printf("%s", result->nlint_result().text().c_str());
    }
  }

  if (result->lint_error_count() > 0) return 4;
  if (result->verify_error_count() > 0) return 5;
  if (result->bound_error_count() > 0) return 6;
  if (result->nlint_error_count() > 0) return 7;
  if (options.lint.only) return 0;

  if (!verilog_out.empty() &&
      !cli::write_output(verilog_out, result->verilog())) {
    return 2;
  }
  if (!artifact_out.empty() &&
      !cli::write_output(artifact_out, rt::emit_artifact(*result, source))) {
    return 2;
  }
  if (!testbench_out.empty()) {
    if (!cli::write_file(testbench_out,
                         core::generate_controller_testbench(*result))) {
      return 2;
    }
    std::printf("wrote %s (DUT + self-checking testbench)\n",
                testbench_out.c_str());
  }

  // Tracing or coverage without an explicit --simulate runs one pass: the
  // trace (or coverage record) *is* the requested output.
  if ((trace_opts.any() || cover) && simulate_passes == 0) {
    simulate_passes = 1;
  }

  if (simulate_passes > 0) {
    std::string stem = input == "-" ? "stdin" : input;
    std::size_t slash = stem.find_last_of('/');
    std::size_t dot = stem.rfind('.');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
      stem = stem.substr(0, dot);
    }

    core::TraceRunOptions run_options;
    run_options.sinks = trace_opts;
    run_options.passes = simulate_passes;
    run_options.max_cycles = max_cycles;
    run_options.cover = cover;
    // Run id: "<input stem>@<organization>" (coverage DB and bundle
    // manifest share the convention).
    const std::string base =
        slash == std::string::npos ? stem : stem.substr(slash + 1);
    const std::string run_id =
        base + "@" + cover::org_prefix(options.organization);
    if (cover) {
      run_options.cover_run_id = run_id;
    }
    if (trace_opts.bundle) {
      run_options.bundle_run_id = run_id;
      run_options.bundle_program = base;
      run_options.bundle_source_digest = diffview::digest_hex(source);
    }
    core::TraceRunResult run = core::run_traced(*result, run_options);

    // Write trace artifacts even on timeout — a truncated waveform is
    // exactly what you want when debugging a deadlock.
    if (trace_opts.vcd &&
        !cli::write_output(
            trace_opts.vcd_out.empty() ? stem + ".vcd" : trace_opts.vcd_out,
            run.vcd)) {
      return 2;
    }
    if (trace_opts.chrome &&
        !cli::write_output(trace_opts.chrome_out.empty()
                               ? stem + ".trace.json"
                               : trace_opts.chrome_out,
                           run.chrome_json)) {
      return 2;
    }
    if (trace_opts.metrics &&
        !cli::write_output(trace_opts.metrics_out,
                           trace_opts.metrics_out.empty()
                               ? run.metrics_text
                               : run.metrics_json)) {
      return 2;
    }
    if (trace_opts.bundle) {
      std::string dir = trace_opts.bundle_out.empty() ? stem + ".bundle"
                                                      : trace_opts.bundle_out;
      std::string error;
      if (!diffview::write_bundle(dir, run.bundle_manifest_json,
                                  run.bundle_events_jsonl,
                                  run.bundle_metrics_json, run.cover_record,
                                  &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      std::printf("wrote run bundle %s/\n", dir.c_str());
    }
    if (cover) {
      if (cover_out.empty()) {
        std::printf("%s", run.cover_text.c_str());
      } else {
        // Append-only DB: one JSONL record per run, merged by hic-cover.
        std::ofstream out(cover_out, std::ios::app);
        if (!out) {
          std::fprintf(stderr, "cannot write '%s'\n", cover_out.c_str());
          return 2;
        }
        out << run.cover_record << "\n";
        std::printf("appended coverage record to %s\n", cover_out.c_str());
      }
    }

    if (!run.converged) {
      std::fprintf(stderr,
                   "simulation did not reach %d passes in %llu cycles\n%s",
                   simulate_passes,
                   static_cast<unsigned long long>(max_cycles),
                   run.stall_report.c_str());
      return 3;
    }
    std::printf("simulated %d pass(es) in %llu cycles\n%s", simulate_passes,
                static_cast<unsigned long long>(run.cycles),
                run.rounds_text.c_str());
  }
  return 0;
}
