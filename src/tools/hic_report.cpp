// hic-report — bench-history ingestion, paper-claims checking and the
// measured-vs-constraint dashboard.
//
//   hic-report [options]
//
//   --bench-dir <dir>       where the BENCH_*.json files live (default .)
//   --history <dir>         history store root (default bench/history)
//   --ingest                ingest BENCH_*.json from --bench-dir into the
//                           history store before reporting
//   --run-id <id>           run id stamped onto ingested records
//   --timestamp <iso8601>   timestamp stamped onto ingested records
//   --emit=dashboard-md     measured-vs-constraint dashboard (default)
//   --emit=experiments-md   regenerate EXPERIMENTS.md's numeric tables
//   --emit=html             single-file HTML dashboard with sparklines
//   --out <path>            write the emitted report there (default stdout)
//   --check                 evaluate the paper-claim constraints and the
//                           median/MAD regression gate; fail on violation
//   --check-drift <file>    verify every regenerated table row appears
//                           verbatim in <file> (EXPERIMENTS.md)
//   --threshold k=pct       per-metric regression threshold override
//                           (repeatable); bare number sets the default
//   --diff <bundleA> <bundleB>
//                           append the hic-diff cross-run comparison
//                           section (trace alignment + §4-style delta
//                           tables) to the dashboard-md report; bundles
//                           are directories from hicc --trace=bundle
//
// Exit status:
//   0  success / all checks green
//   1  --check found a constraint violation or a bench regression
//   2  usage error
//   3  --check could not run (no history, missing bench data, schema skew)
//   5  --check-drift found committed tables diverging from regenerated

#include <cstdio>
#include <string>

#include "diffview/delta.h"
#include "perf/compare.h"
#include "perf/constraints.h"
#include "perf/history.h"
#include "perf/report.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

constexpr const char* kUsageBody =
    "  --bench-dir <dir> | --history <dir>\n"
    "  --ingest [--run-id <id>] [--timestamp <iso8601>]\n"
    "  --emit=dashboard-md|experiments-md|html [--out <path>]\n"
    "  --check | --check-drift <file>\n"
    "  --threshold <key>=<pct> | --threshold <pct>\n"
    "  --diff <bundleA> <bundleB>\n"
    "exit codes: 0 ok, 1 check failed, 2 usage, 3 missing data, 5 drift\n";

}  // namespace

int main(int argc, char** argv) {
  std::string bench_dir = ".";
  std::string history_dir = "bench/history";
  std::string emit = "dashboard-md";
  std::string out_path;
  std::string run_id = "local";
  std::string timestamp;
  std::string drift_file;
  std::string diff_a;
  std::string diff_b;
  bool ingest = false;
  bool check = false;
  bool emit_explicit = false;
  perf::CompareOptions compare_options;

  cli::Args args(argc, argv,
                 support::format("usage: %s [options]\n%s", argv[0],
                                 kUsageBody));
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--bench-dir") {
      bench_dir = args.next_value();
    } else if (arg == "--history") {
      history_dir = args.next_value();
    } else if (arg == "--ingest") {
      ingest = true;
    } else if (arg == "--run-id") {
      run_id = args.next_value();
    } else if (arg == "--timestamp") {
      timestamp = args.next_value();
    } else if (args.option("--emit")) {
      emit = args.next_value();
      emit_explicit = true;
      if (emit != "dashboard-md" && emit != "experiments-md" &&
          emit != "html") {
        std::fprintf(stderr, "unknown --emit format '%s'\n", emit.c_str());
        return 2;
      }
    } else if (arg == "--out") {
      out_path = args.next_value();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--check-drift") {
      drift_file = args.next_value();
    } else if (arg == "--diff") {
      diff_a = args.next_value();
      diff_b = args.next_value();
    } else if (arg == "--threshold") {
      const std::string spec = args.next_value();
      const std::size_t eq = spec.find('=');
      const bool keyed = eq != std::string::npos;
      double pct = 0.0;
      if ((keyed && eq == 0) ||
          !support::parse_double(keyed ? spec.substr(eq + 1) : spec, &pct)) {
        std::fprintf(stderr, "bad --threshold '%s'\n", spec.c_str());
        return 2;
      }
      if (keyed) {
        compare_options.threshold_pct[spec.substr(0, eq)] = pct;
      } else {
        compare_options.default_threshold_pct = pct;
      }
    } else {
      return args.unhandled();
    }
  }

  perf::HistoryStore store(history_dir);
  if (ingest) {
    std::string error;
    int n = store.ingest_directory(bench_dir, run_id, timestamp, &error);
    if (n < 0) {
      std::fprintf(stderr, "ingest failed: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr, "ingested %d BENCH_*.json file(s) from %s into %s\n",
                 n, bench_dir.c_str(), store.root().c_str());
  }

  perf::ReportInputs inputs = perf::ReportInputs::from_store(store);

  // Constraint + regression evaluation feeds both the dashboards and
  // --check, so compute it once.
  std::vector<perf::ConstraintResult> constraints =
      perf::check_constraints(inputs.latest);
  std::map<std::string, perf::CompareResult> comparisons;
  for (const auto& [bench, runs] : inputs.history) {
    comparisons.emplace(bench, perf::compare_runs(runs, compare_options));
  }

  int exit_code = 0;

  if (!drift_file.empty()) {
    std::string committed;
    if (!cli::read_file(drift_file, &committed)) return 2;
    const std::string generated = perf::emit_experiments_md(inputs);
    std::vector<std::string> missing =
        perf::check_drift(committed, generated);
    if (inputs.latest.empty()) {
      std::fprintf(stderr, "--check-drift: no bench history to regenerate "
                           "from\n");
      return 3;
    }
    if (!missing.empty()) {
      std::fprintf(stderr,
                   "--check-drift: %zu regenerated table row(s) missing "
                   "from %s:\n",
                   missing.size(), drift_file.c_str());
      for (const std::string& line : missing) {
        std::fprintf(stderr, "  %s\n", line.c_str());
      }
      return 5;
    }
    std::fprintf(stderr, "--check-drift: %s matches the regenerated "
                         "tables\n",
                 drift_file.c_str());
  }

  if (check) {
    if (inputs.latest.empty()) {
      std::fprintf(stderr, "--check: history store '%s' is empty\n",
                   store.root().c_str());
      return 3;
    }
    int failed = 0;
    int missing = 0;
    for (const perf::ConstraintResult& r : constraints) {
      if (r.status == perf::ConstraintStatus::Fail) {
        std::fprintf(stderr, "CONSTRAINT FAIL %s (%s): %s\n",
                     r.constraint.id.c_str(),
                     r.constraint.description.c_str(), r.detail.c_str());
        ++failed;
      } else if (r.status == perf::ConstraintStatus::MissingData) {
        std::fprintf(stderr, "constraint %s: %s\n", r.constraint.id.c_str(),
                     r.detail.c_str());
        ++missing;
      }
    }
    bool skew = false;
    int regressions = 0;
    for (const auto& [bench, cmp] : comparisons) {
      if (cmp.overall == perf::Verdict::SchemaSkew) {
        std::fprintf(stderr, "SCHEMA SKEW in history of %s\n", bench.c_str());
        skew = true;
      }
      for (const perf::MetricDelta* d : cmp.regressions()) {
        std::fprintf(stderr,
                     "REGRESSION %s.%s: %+.2f%% (median %.6g -> %.6g)\n",
                     bench.c_str(), d->key.c_str(), d->delta_pct,
                     d->baseline_median, d->latest);
        ++regressions;
      }
    }
    std::fprintf(stderr,
                 "--check: %zu constraints (%d failed, %d missing data), "
                 "%d regression(s)\n",
                 constraints.size(), failed, missing, regressions);
    if (failed > 0 || regressions > 0) {
      exit_code = 1;
    } else if (skew) {
      exit_code = 3;
    }
  }

  // Emit the requested report (skipped when the invocation was check-only
  // with the default emit target and no --out). --diff forces the
  // dashboard out even on a check-only invocation: the comparison section
  // is the requested artifact.
  const bool check_only = (check || !drift_file.empty()) && !emit_explicit &&
                          out_path.empty() && diff_a.empty();
  if (!check_only) {
    std::string body;
    if (emit == "experiments-md") {
      body = perf::emit_experiments_md(inputs);
    } else if (emit == "html") {
      body = perf::emit_html(inputs, constraints, comparisons);
    } else {
      body = perf::emit_dashboard_md(inputs, constraints, comparisons);
    }
    if (!diff_a.empty() && emit == "dashboard-md") {
      diffview::Bundle a;
      diffview::Bundle b;
      std::string error;
      if (!diffview::load_bundle(diff_a, &a, &error) ||
          !diffview::load_bundle(diff_b, &b, &error)) {
        std::fprintf(stderr, "--diff: %s\n", error.c_str());
        return 2;
      }
      body += "\n" + diffview::diff_bundles(a, b).markdown();
    }
    if (!cli::write_output(out_path, body)) return 2;
  }
  return exit_code;
}
