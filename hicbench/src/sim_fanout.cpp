// sim_fanout: repeated rt::run_workload calls on one thread over the cells
// {stress8, stress_shared, fanout(32)} x {arbitrated, event-driven}.
// Compiling and make_simulator run in set-up, so the measured window is
// almost all L1 (rtl::ModuleSim) and L2 (sim::SystemSim) work.
//
// Checks: every call converges; its simulated cycles and rounds equal the
// committed expected file; the arbitrated and event-driven runs of one
// program and seed end with identical registers.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rt/workload.h"
#include "rtl/eval.h"
#include "stats.h"
#include "support/json.h"
#include "trace/bus.h"
#include "trace/metrics.h"

namespace hicbench {
namespace {

using hicsync::sim::OrgKind;
using Clock = std::chrono::steady_clock;

constexpr int kPasses = 4;
constexpr std::uint64_t kMaxCycles = 1000000;
constexpr int kSetups = 9;
constexpr int kProbeCalls = 200;  // timed calls per per-layer probe

struct Program {
  std::string name;
  std::string source;
};

struct Cell {
  std::string name;  // "<program>.<arb|ed>"
  std::size_t program = 0;
  OrgKind org = OrgKind::Arbitrated;
  std::unique_ptr<hicsync::core::CompileResult> result;
  std::unique_ptr<hicsync::sim::SystemSim> sim;  // built from `result`
  std::uint64_t expected_cycles = 0;
  std::uint64_t expected_rounds = 0;
};

// Per-cell samples of one measuring window.
struct Window {
  std::vector<std::vector<double>> us_per_cycle;
  std::vector<std::vector<double>> call_ms;
  double seconds = 0.0;
  std::uint64_t cycles = 0;
};

const char* org_tag(OrgKind org) {
  return org == OrgKind::Arbitrated ? "arb" : "ed";
}

bool load_programs(std::vector<Program>* out) {
  std::vector<Program> programs = {{"stress8", ""}, {"stress_shared", ""}};
  for (Program& p : programs) {
    if (!read_file("examples/" + p.name + ".hic", &p.source)) {
      return false;
    }
  }
  programs.push_back({"fan32", hicsync::netapp::fanout_source(32)});
  *out = std::move(programs);
  return true;
}

// Set-up: read the sources, compile every cell, build its simulator.
bool build_cells(std::vector<Cell>* cells, Outcome& out) {
  std::vector<Program> programs;
  if (!load_programs(&programs)) {
    out.fail("cannot read examples/*.hic");
    return false;
  }
  for (std::size_t p = 0; p < programs.size(); ++p) {
    for (OrgKind org : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
      Cell cell;
      cell.name = programs[p].name + "." + org_tag(org);
      cell.program = p;
      cell.org = org;
      hicsync::core::CompileOptions copts;
      copts.organization = org;
      cell.result = hicsync::core::Compiler(copts).compile(programs[p].source);
      if (!cell.result->ok()) {
        out.fail(cell.name + " does not compile");
        return false;
      }
      cell.sim = cell.result->make_simulator();
      cells->push_back(std::move(cell));
    }
  }
  return true;
}

hicsync::rt::WorkloadResult run_cell(Cell& cell, std::uint64_t seed) {
  return hicsync::rt::run_workload(*cell.sim, cell.result->program(),
                                   cell.result->sema(), kPasses, kMaxCycles,
                                   seed);
}

// One closed-loop window of at least one round over every program; in a
// round both organizations of a program run with the same derived seed.
Window measure(std::vector<Cell>& cells, const Options& options,
               double budget_s, std::uint64_t round_base,
               SpanRecorder* spans, Outcome& out) {
  Window w;
  w.us_per_cycle.resize(cells.size());
  w.call_ms.resize(cells.size());
  const auto start = Clock::now();
  std::uint64_t round = round_base;
  do {
    ScopedSpan round_span(spans, "bench.round", "bench", 0, round);
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
      const std::uint64_t seed =
          derive_seed(options.seed, round, cells[i].program);
      hicsync::rt::WorkloadResult results[2];
      for (std::size_t k = 0; k < 2; ++k) {
        Cell& cell = cells[i + k];
        const auto t0 = Clock::now();
        {
          ScopedSpan call(spans, "sim.run_workload", "sim", round_span.id(),
                          round);
          results[k] = run_cell(cell, seed);
        }
        const double s = seconds_since(t0);
        const auto& r = results[k];
        bool ok = r.converged && r.cycles == cell.expected_cycles &&
                  r.rounds == cell.expected_rounds;
        if (k == 1 && r.registers != results[0].registers) ok = false;
        out.attempt(ok);
        if (!ok) {
          out.report_failure(
              cell.name + " seed " + std::to_string(seed) + ": converged=" +
              std::to_string(r.converged) + " cycles=" +
              std::to_string(r.cycles) + " rounds=" + std::to_string(r.rounds) +
              (k == 1 && r.registers != results[0].registers
                   ? " registers differ from the arbitrated run"
                   : ""));
        }
        if (r.cycles > 0) {
          w.us_per_cycle[i + k].push_back(s * 1e6 /
                                          static_cast<double>(r.cycles));
        }
        w.call_ms[i + k].push_back(s * 1e3);
        w.cycles += r.cycles;
      }
    }
    ++round;
  } while (seconds_since(start) < budget_s);
  w.seconds = seconds_since(start);
  return w;
}

Summary summarize(const std::vector<Cell>& cells, const Window& w) {
  std::vector<double> arb;
  std::vector<double> ed;
  Summary s;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double m = median(w.us_per_cycle[i]);
    (cells[i].org == OrgKind::Arbitrated ? arb : ed).push_back(m);
    s.total_ms += median(w.call_ms[i]);
  }
  s.arb_us = geomean(arb);
  s.ed_us = geomean(ed);
  return s;
}

// Median wall time of `call`, in microseconds, over kProbeCalls calls;
// `prepare` runs untimed before each call.
template <typename Prepare, typename Call>
double probe_us(SpanRecorder* spans, const char* name, const char* layer,
                Prepare prepare, Call call) {
  std::vector<double> us;
  us.reserve(kProbeCalls);
  for (int i = 0; i < kProbeCalls; ++i) {
    prepare(i);
    const auto t0 = Clock::now();
    {
      ScopedSpan span(spans, name, layer);
      call();
    }
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

// ModuleSim::step and ::settle on every controller of the design, each
// driven from outside with seeded input values; summed over controllers.
void probe_rtl(const hicsync::core::CompileResult& result, std::uint64_t seed,
               SpanRecorder* spans, double* step_us, double* settle_us) {
  *step_us = 0.0;
  *settle_us = 0.0;
  for (const auto& module : result.design().modules()) {
    hicsync::rtl::ModuleSim msim(*module);
    msim.reset();
    std::vector<std::string> inputs;
    for (const auto& port : module->ports()) {
      if (port.dir == hicsync::rtl::PortDir::Input && port.name != "clk" &&
          port.name != "rst") {
        inputs.push_back(port.name);
      }
    }
    auto drive = [&](int i) {
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        msim.set_input(inputs[k], derive_seed(seed, i, k) & 1);
      }
    };
    *step_us += probe_us(spans, "rtl.step", "rtl", drive,
                         [&] { msim.step(); });
    *settle_us += probe_us(spans, "rtl.settle", "rtl", drive,
                           [&] { msim.settle(); });
  }
}

// SystemSim::step from reset (threads restart after each pass).
double probe_sim_step(Cell& cell, std::uint64_t seed, SpanRecorder* spans) {
  (void)run_cell(cell, seed);  // seeds the externs
  cell.sim->reset();
  return probe_us(spans, "sim.step", "sim", [](int) {},
                  [&] { cell.sim->step(); });
}

void traced_probes(std::vector<Cell>& cells, const Window& untraced,
                   const Options& options, SpanRecorder* spans,
                   Outcome& out) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell& cell = cells[i];
    const std::uint64_t seed = derive_seed(options.seed, 1u << 20, i);
    double step_us = 0.0;
    double settle_us = 0.0;
    probe_rtl(*cell.result, seed, spans, &step_us, &settle_us);
    out.set("rtl.step_us." + cell.name, step_us);
    out.set("rtl.settle_us." + cell.name, settle_us);
    out.set("sim.step_us." + cell.name, probe_sim_step(cell, seed, spans));
    out.set("sim.reset_us." + cell.name,
            probe_us(spans, "sim.reset", "sim", [](int) {},
                     [&] { cell.sim->reset(); }));
    out.set("sim.run_us." + cell.name, median(untraced.call_ms[i]) * 1e3);

    // Simulated counts, from a MetricsSink attached for one call.
    hicsync::trace::TraceBus bus;
    hicsync::trace::MetricsSink sink;
    bus.attach(&sink);
    cell.sim->set_trace(&bus);
    const auto r = run_cell(cell, seed);
    cell.sim->set_trace(nullptr);
    std::uint64_t stalls = 0;
    for (const auto& [name, counter] : sink.registry().counters()) {
      if (name.rfind("stall.", 0) == 0) stalls += counter.value();
    }
    out.set("sim.cycles." + cell.name, static_cast<double>(r.cycles));
    out.set("sim.rounds." + cell.name, static_cast<double>(r.rounds));
    out.set("sim.stall_cycles." + cell.name, static_cast<double>(stalls));
    const bool ok = r.cycles == cell.expected_cycles &&
                    r.rounds == cell.expected_rounds;
    out.attempt(ok);
    if (!ok) out.report_failure(cell.name + ": traced counts differ");
  }

  // Scaling sweep: cost of one L1 and one L2 step against fan-out.
  for (int fan : {8, 16, 32, 64}) {
    const std::string source = hicsync::netapp::fanout_source(fan);
    for (OrgKind org : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
      const std::string point =
          "fan" + std::to_string(fan) + "." + org_tag(org);
      Cell cell;
      cell.name = point;
      cell.org = org;
      hicsync::core::CompileOptions copts;
      copts.organization = org;
      cell.result = hicsync::core::Compiler(copts).compile(source);
      if (!cell.result->ok()) {
        out.fail("sweep point " + point + " does not compile");
        continue;
      }
      cell.sim = cell.result->make_simulator();
      const std::uint64_t seed = derive_seed(options.seed, 1u << 21, fan);
      double step_us = 0.0;
      double settle_us = 0.0;
      probe_rtl(*cell.result, seed, spans, &step_us, &settle_us);
      out.set("sweep.rtl.step_us." + point, step_us);
      out.set("sweep.sim.step_us." + point, probe_sim_step(cell, seed, spans));
    }
  }
}

void write_expected(std::vector<Cell>& cells, const Options& options,
                    Outcome& out) {
  hicsync::support::JsonWriter w(2);
  w.begin_object();
  w.key("passes").value(kPasses);
  w.key("cells").begin_object();
  for (Cell& cell : cells) {
    const auto r = run_cell(cell, derive_seed(options.seed, 0, cell.program));
    out.attempt(r.converged);
    w.key(cell.name).begin_object();
    w.key("cycles").value(r.cycles);
    w.key("rounds").value(r.rounds);
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
  const auto* passes = doc.find("passes");
  const auto* table = doc.find("cells");
  if (passes == nullptr || passes->number_value != kPasses ||
      table == nullptr) {
    out.fail("expected file does not match this benchmark's pass count");
    return false;
  }
  for (Cell& cell : cells) {
    const auto* entry = table->find(cell.name);
    const auto* cycles = entry ? entry->find("cycles") : nullptr;
    const auto* rounds = entry ? entry->find("rounds") : nullptr;
    if (cycles == nullptr || rounds == nullptr) {
      out.fail("expected file has no entry for " + cell.name);
      return false;
    }
    cell.expected_cycles = static_cast<std::uint64_t>(cycles->number_value);
    cell.expected_rounds = static_cast<std::uint64_t>(rounds->number_value);
  }
  return true;
}

}  // namespace

void run_sim_fanout(const Options& options, SpanRecorder* spans,
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

  // Warm-up: one untimed round fills caches and lazy state.
  (void)measure(cells, options, 0.0, 0, nullptr, out);

  if (!options.trace) {
    const Window w = measure(cells, options, options.seconds, 1, nullptr, out);
    const Summary s = summarize(cells, w);
    report_end_to_end(s, setup_s, peak_rss_mb(), out);
    out.note("sim.arb.cycles_per_s", 1e6 / s.arb_us, "1/s");
    out.note("sim.ed.cycles_per_s", 1e6 / s.ed_us, "1/s");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.note("sim.cycles_per_s." + cells[i].name,
               1e6 / median(w.us_per_cycle[i]), "1/s");
    }
    out.note("sim.cycles_per_s.all",
             static_cast<double>(w.cycles) / w.seconds, "1/s");
    return;
  }

  // Traced run: an untraced and a traced half-window give the tracing
  // overhead; the per-layer probes and the sweep follow.
  const Window a = measure(cells, options, options.seconds / 2, 1, nullptr,
                           out);
  const Window b = measure(cells, options, options.seconds / 2, 1u << 16,
                           spans, out);
  report_overhead(summarize(cells, a), summarize(cells, b), out);
  traced_probes(cells, a, options, spans, out);
}

}  // namespace hicbench
