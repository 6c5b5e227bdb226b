// compile_corpus: core::Compiler::compile on one thread, configured the way
// `hicc --lint --bound --verify --nlint` runs it. Cells: {fig1, pipeline,
// stress8, stress_shared, ip_forwarding} with all four analyzers and
// {fanout(256), fanout(1024)} with lint, bound and nlint (they exceed
// hic-verify's state budget), each under both organizations. Nothing is
// simulated: the window is all L0.
//
// Checks: every compile is ok() with zero lint, bound, verify and nlint
// errors, and its LUT count, FF count, Fmax and verify verdict equal the
// committed expected file.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "perf/profile.h"
#include "stats.h"
#include "support/json.h"

namespace hicbench {
namespace {

using hicsync::sim::OrgKind;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 9;
// A round compiles each cell until it has spent this long on it (at
// least once), so the small programs get enough samples for a median.
constexpr double kCellSliceS = 0.1;
constexpr int kMaxReps = 50;

// PassTimer phase -> per-layer metric.
const std::pair<const char*, const char*> kPhases[] = {
    {"parse", "hic.parse_ms"},        {"sema", "hic.sema_ms"},
    {"lint", "analysis.lint_ms"},     {"deadlock", "analysis.deadlock_ms"},
    {"synth", "synth.synth_ms"},      {"memalloc", "memalloc.alloc_ms"},
    {"memorg", "memorg.generate_ms"}, {"techmap", "fpga.techmap_ms"},
    {"timing", "fpga.timing_ms"},     {"bound", "bound.analyze_ms"},
    {"verify", "verify.check_ms"},    {"nlint", "nlint.check_ms"}};
// PassTimer count -> per-layer metric.
const std::pair<const char*, const char*> kCounts[] = {
    {"netlist.nets", "rtl.nets"},
    {"netlist.luts", "rtl.luts"},
    {"netlist.ffs", "rtl.ffs"},
    {"verify.states", "verify.states"},
    {"verify.transitions", "verify.transitions"},
    {"bound.worklist_steps", "bound.worklist_steps"},
    {"nlint.facts", "nlint.facts"}};

struct Cell {
  std::string name;  // "<program>.<arb|ed>"
  std::string source;
  hicsync::core::CompileOptions options;
  int reps = 1;
  // Expected results.
  int luts = 0;
  int ffs = 0;
  double fmax_mhz = 0.0;
  std::string verify;
};

struct Window {
  std::vector<std::vector<double>> compile_ms;  // per cell
  // Traced windows only: per cell, per phase, one sample per compile; and
  // the counts of the cell's compiles (which must all agree).
  std::vector<std::map<std::string, std::vector<double>>> phase_ms;
  std::vector<std::map<std::string, std::uint64_t>> counts;
};

std::string verify_verdict(const hicsync::core::CompileResult& r) {
  if (!r.options().verify.enabled) return "off";
  for (const auto& v : r.verify_results()) {
    if (!v.all_proved()) return "not-proved";
  }
  return r.verify_results().empty() ? "missing" : "proved";
}

bool build_cells(std::vector<Cell>* cells, Outcome& out) {
  struct Program {
    std::string name;
    std::string source;
    bool verify;
  };
  std::vector<Program> programs = {{"fig1", "", true},
                                   {"pipeline", "", true},
                                   {"stress8", "", true},
                                   {"stress_shared", "", true}};
  for (Program& p : programs) {
    if (!read_file("examples/" + p.name + ".hic", &p.source)) {
      out.fail("cannot read examples/" + p.name + ".hic");
      return false;
    }
  }
  programs.push_back(
      {"ip_forwarding", hicsync::netapp::ip_forwarding_source(), true});
  programs.push_back({"fan256", hicsync::netapp::fanout_source(256), false});
  programs.push_back({"fan1024", hicsync::netapp::fanout_source(1024), false});
  for (const Program& p : programs) {
    for (OrgKind org : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
      Cell cell;
      cell.name = p.name + (org == OrgKind::Arbitrated ? ".arb" : ".ed");
      cell.source = p.source;
      cell.options.organization = org;
      cell.options.lint.enabled = true;
      cell.options.bound.enabled = true;
      cell.options.nlint.enabled = true;
      cell.options.verify.enabled = p.verify;
      cell.options.source_name = p.name;
      cells->push_back(std::move(cell));
    }
  }
  return true;
}

// Checks one compile against the expected file; true when it matches.
bool check(const Cell& cell, const hicsync::core::CompileResult& r,
           Outcome& out) {
  std::string why;
  if (!r.ok()) {
    why = "does not compile";
  } else if (r.lint_error_count() + r.bound_error_count() +
                 r.verify_error_count() + r.nlint_error_count() !=
             0) {
    why = "analyzer errors: lint " + std::to_string(r.lint_error_count()) +
          " bound " + std::to_string(r.bound_error_count()) + " verify " +
          std::to_string(r.verify_error_count()) + " nlint " +
          std::to_string(r.nlint_error_count());
  } else {
    const auto area = r.total_overhead();
    const double fmax = r.min_fmax_mhz();
    if (area.luts != cell.luts || area.ffs != cell.ffs ||
        std::fabs(fmax - cell.fmax_mhz) > 1e-9 * std::max(1.0, cell.fmax_mhz) ||
        verify_verdict(r) != cell.verify) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "luts %d ffs %d fmax %.9g verify %s, "
                    "expected %d %d %.9g %s",
                    area.luts, area.ffs, fmax, verify_verdict(r).c_str(),
                    cell.luts, cell.ffs, cell.fmax_mhz, cell.verify.c_str());
      why = buf;
    }
  }
  if (!why.empty()) out.report_failure(cell.name + ": " + why);
  return why.empty();
}

// Rounds over every cell until `budget_s` has passed (at least one round).
// The order is fixed: the corpus has no generated input for the seed to
// vary, and a varying order moves peak RSS (heap reuse between cells).
// With `profile`, each compile carries a PassTimer and a span.
Window measure(const std::vector<Cell>& cells, double budget_s,
               bool profile, SpanRecorder* spans, Outcome& out) {
  Window w;
  w.compile_ms.resize(cells.size());
  w.phase_ms.resize(cells.size());
  w.counts.resize(cells.size());
  const auto start = Clock::now();
  std::uint64_t round = 0;
  do {
    ScopedSpan round_span(spans, "bench.round", "bench", 0, round);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      for (int rep = 0; rep < cell.reps; ++rep) {
        hicsync::perf::PassTimer timer;
        hicsync::core::CompileOptions copts = cell.options;
        if (profile) copts.profiler = &timer;
        const hicsync::core::Compiler compiler(copts);
        const auto t0 = Clock::now();
        std::unique_ptr<hicsync::core::CompileResult> r;
        {
          ScopedSpan span(spans, "core.compile", "core", round_span.id(),
                          round);
          r = compiler.compile(cell.source);
        }
        w.compile_ms[i].push_back(seconds_since(t0) * 1e3);
        bool ok = check(cell, *r, out);
        if (profile) {
          for (const auto& phase : timer.phases()) {
            w.phase_ms[i][phase.name].push_back(
                static_cast<double>(phase.wall_ns) / 1e6);
          }
          for (const auto& [name, value] : timer.counts()) {
            auto [it, inserted] = w.counts[i].emplace(name, value);
            if (!inserted && it->second != value) {
              out.report_failure(cell.name + ": count " + name +
                                 " differs between compiles");
              ok = false;
            }
          }
        }
        out.attempt(ok);
      }
    }
    ++round;
  } while (seconds_since(start) < budget_s);
  return w;
}

Summary summarize(const std::vector<Cell>& cells, const Window& w) {
  std::vector<double> arb;
  std::vector<double> ed;
  Summary s;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double m = median(w.compile_ms[i]);
    (cells[i].options.organization == OrgKind::Arbitrated ? arb : ed)
        .push_back(m * 1e3);
    s.total_ms += m;
  }
  s.arb_us = geomean(arb);
  s.ed_us = geomean(ed);
  return s;
}

void write_expected(const std::vector<Cell>& cells, const Options& options,
                    Outcome& out) {
  hicsync::support::JsonWriter w(2);
  w.begin_object();
  w.key("cells").begin_object();
  for (const Cell& cell : cells) {
    const auto r = hicsync::core::Compiler(cell.options).compile(cell.source);
    out.attempt(r->ok());
    char fmax[64];
    std::snprintf(fmax, sizeof fmax, "%.17g", r->min_fmax_mhz());
    w.key(cell.name).begin_object();
    w.key("luts").value(r->total_overhead().luts);
    w.key("ffs").value(r->total_overhead().ffs);
    w.key("fmax_mhz").raw(fmax);
    w.key("verify").value(verify_verdict(*r));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  if (!write_file(expected_path(options), w.str() + "\n")) {
    out.fail("cannot write " + expected_path(options));
  }
}

bool load_expected(std::vector<Cell>& cells, const Options& options,
                   Outcome& out) {
  hicsync::support::JsonValue doc;
  if (!load_json(expected_path(options), &doc)) {
    out.fail("no expected file");
    return false;
  }
  const auto* table = doc.find("cells");
  for (Cell& cell : cells) {
    const auto* e = table ? table->find(cell.name) : nullptr;
    const auto* luts = e ? e->find("luts") : nullptr;
    const auto* ffs = e ? e->find("ffs") : nullptr;
    const auto* fmax = e ? e->find("fmax_mhz") : nullptr;
    const auto* verify = e ? e->find("verify") : nullptr;
    if (luts == nullptr || ffs == nullptr || fmax == nullptr ||
        verify == nullptr) {
      out.fail("expected file has no complete entry for " + cell.name);
      return false;
    }
    cell.luts = static_cast<int>(luts->number_value);
    cell.ffs = static_cast<int>(ffs->number_value);
    cell.fmax_mhz = fmax->number_value;
    cell.verify = verify->string_value;
  }
  return true;
}

// L0 per-layer metrics: per phase, the sum over cells of the cell's median
// phase time; per count, the sum over cells (exact).
void report_layers(const std::vector<Cell>& cells, const Window& w,
                   Outcome& out) {
  for (const auto& [phase, metric] : kPhases) {
    double total = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto it = w.phase_ms[i].find(phase);
      if (it != w.phase_ms[i].end()) total += median(it->second);
    }
    out.set(metric, total);
  }
  for (const auto& [count, metric] : kCounts) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto it = w.counts[i].find(count);
      if (it != w.counts[i].end()) total += it->second;
    }
    out.set(metric, static_cast<double>(total));
  }
}

// Scaling sweep: a plain compile (no analyzers) against fan-out.
void compile_sweep(SpanRecorder* spans, Outcome& out) {
  for (int fan : {64, 256, 1024}) {
    const std::string source = hicsync::netapp::fanout_source(fan);
    for (OrgKind org : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
      hicsync::core::CompileOptions copts;
      copts.organization = org;
      const hicsync::core::Compiler compiler(copts);
      std::vector<double> ms;
      const auto start = Clock::now();
      do {
        const auto t0 = Clock::now();
        std::unique_ptr<hicsync::core::CompileResult> r;
        {
          ScopedSpan span(spans, "core.compile", "core");
          r = compiler.compile(source);
        }
        ms.push_back(seconds_since(t0) * 1e3);
        out.attempt(r->ok());
      } while (seconds_since(start) < 0.5 && ms.size() < 10);
      out.set("sweep.core.compile_ms.fan" + std::to_string(fan) +
                  (org == OrgKind::Arbitrated ? ".arb" : ".ed"),
              median(ms));
    }
  }
}

}  // namespace

void run_compile_corpus(const Options& options, SpanRecorder* spans,
                        Outcome& out) {
  std::vector<Cell> cells;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    std::vector<Cell> fresh;
    const auto t0 = Clock::now();
    if (!build_cells(&fresh, out)) return;
    setup_s.push_back(seconds_since(t0));
    cells = std::move(fresh);  // the previous set-up is torn down untimed
  }
  if (options.write_expected) {
    write_expected(cells, options, out);
    return;
  }
  if (!load_expected(cells, options, out)) return;

  // Warm-up round, which also sizes each cell's repetitions per round.
  const Window warm = measure(cells, 0.0, false, nullptr, out);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double ms = std::max(1e-3, warm.compile_ms[i].front());
    cells[i].reps = std::clamp(static_cast<int>(kCellSliceS * 1e3 / ms), 1,
                               kMaxReps);
  }

  if (!options.trace) {
    const Window w = measure(cells, options.seconds, false, nullptr, out);
    const Summary s = summarize(cells, w);
    report_end_to_end(s, setup_s, peak_rss_mb(), out);
    // Every cell weighs the same: sqrt(arb geomean * ed geomean).
    out.note("compile.geomean_ms", std::sqrt(s.arb_us * s.ed_us) / 1e3, "ms");
    out.note("compile.total_ms", s.total_ms, "ms");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.note("compile_ms." + cells[i].name, median(w.compile_ms[i]), "ms");
    }
    return;
  }

  const Window a = measure(cells, options.seconds / 2, false, nullptr, out);
  const Window b = measure(cells, options.seconds / 2, true, spans, out);
  report_overhead(summarize(cells, a), summarize(cells, b), out);
  report_layers(cells, b, out);
  compile_sweep(spans, out);
}

}  // namespace hicbench
