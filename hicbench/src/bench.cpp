#include "bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats.h"
#include "support/json.h"

namespace hicbench {

namespace {

const char* const kSimCells[] = {"stress8.arb",       "stress8.ed",
                                 "stress_shared.arb", "stress_shared.ed",
                                 "fan32.arb",         "fan32.ed"};
const char* const kOrgs[] = {"arb", "ed"};
const char* const kRtKinds[] = {"open", "produce", "run", "consume", "close"};

}  // namespace

void Outcome::fail(const std::string& why) {
  broken_ = true;
  report_failure(why);
}

void Outcome::report_failure(const std::string& why) {
  // Enough lines to diagnose, never a flood.
  if (printed_++ < 20) {
    std::fprintf(stderr, "hic-bench: FAIL %s\n", why.c_str());
  }
}

void Outcome::note(const std::string& name, double value,
                   const std::string& unit) {
  std::printf("%-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

std::vector<MetricSpec> end_to_end_metrics() {
  return {{"setup_s", "s"},
          {"peak_rss_mb", "MB"},
          {"arb_us", "us"},
          {"ed_us", "us"},
          {"total_ms", "ms"}};
}

std::vector<MetricSpec> per_layer_metrics() {
  std::vector<MetricSpec> out;
  // L0, summed over the compile_corpus cells.
  for (const char* name :
       {"hic.parse_ms", "hic.sema_ms", "analysis.lint_ms",
        "analysis.deadlock_ms", "synth.synth_ms", "memalloc.alloc_ms",
        "memorg.generate_ms", "fpga.techmap_ms", "fpga.timing_ms",
        "bound.analyze_ms", "verify.check_ms", "nlint.check_ms"}) {
    out.push_back({name, "ms"});
  }
  for (const char* name :
       {"rtl.nets", "rtl.luts", "rtl.ffs", "verify.states",
        "verify.transitions", "bound.worklist_steps", "nlint.facts"}) {
    out.push_back({name, "count"});
  }
  // L1 and L2, per sim_fanout cell.
  for (const char* cell : kSimCells) {
    const std::string c = cell;
    out.push_back({"rtl.step_us." + c, "us"});
    out.push_back({"rtl.settle_us." + c, "us"});
    out.push_back({"sim.step_us." + c, "us"});
    out.push_back({"sim.reset_us." + c, "us"});
    out.push_back({"sim.run_us." + c, "us"});
    out.push_back({"sim.cycles." + c, "count"});
    out.push_back({"sim.rounds." + c, "count"});
    out.push_back({"sim.stall_cycles." + c, "count"});
  }
  // Scaling sweeps.
  for (int fan : {8, 16, 32, 64}) {
    for (const char* org : kOrgs) {
      const std::string point = "fan" + std::to_string(fan) + "." + org;
      out.push_back({"sweep.rtl.step_us." + point, "us"});
      out.push_back({"sweep.sim.step_us." + point, "us"});
    }
  }
  for (int fan : {64, 256, 1024}) {
    for (const char* org : kOrgs) {
      out.push_back({"sweep.core.compile_ms.fan" + std::to_string(fan) + "." +
                         org,
                     "ms"});
    }
  }
  // L3 and L4, per op kind.
  for (const char* kind : kRtKinds) {
    const std::string k = kind;
    out.push_back({"wire.socket_us." + k, "us"});
    out.push_back({"wire.handle_us." + k, "us"});
    out.push_back({"rt.hop_us." + k, "us"});
  }
  out.push_back({"rt.queue_wait_us", "us"});
  out.push_back({"rt.max_queue_depth", "count"});
  out.push_back({"rt.failures", "count"});
  out.push_back({"rt.p50_us", "us"});
  out.push_back({"rt.p99_us", "us"});
  out.push_back({"rt.requests_per_s", "1/s"});
  // Span self time per layer, and the cost of tracing itself.
  for (const char* layer : {"bench", "core", "rtl", "sim", "rt", "wire"}) {
    out.push_back({std::string("self.") + layer + "_ms", "ms"});
  }
  out.push_back({"overhead.arb_us", "us"});
  out.push_back({"overhead.ed_us", "us"});
  out.push_back({"overhead.total_ms", "ms"});
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  return mix(mix(mix(seed) ^ a) ^ b);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

bool load_json(const std::string& path, hicsync::support::JsonValue* out) {
  std::string text;
  std::string error;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "hic-bench: cannot read %s\n", path.c_str());
    return false;
  }
  if (!hicsync::support::parse_json(text, out, &error)) {
    std::fprintf(stderr, "hic-bench: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

std::string expected_path(const Options& options) {
  return "hicbench/expected/" + options.workload + ".json";
}

void report_end_to_end(const Summary& w, const std::vector<double>& setup_s,
                       double peak_rss_mb, Outcome& out) {
  out.set("setup_s", median(setup_s));
  out.set("peak_rss_mb", peak_rss_mb);
  out.set("arb_us", w.arb_us);
  out.set("ed_us", w.ed_us);
  out.set("total_ms", w.total_ms);
}

void report_overhead(const Summary& untraced, const Summary& traced,
                     Outcome& out) {
  out.set("overhead.arb_us", traced.arb_us - untraced.arb_us);
  out.set("overhead.ed_us", traced.ed_us - untraced.ed_us);
  out.set("overhead.total_ms", traced.total_ms - untraced.total_ms);
}

void add_layer_self_times(const SpanRecorder& spans, Outcome& out) {
  for (const auto& [layer, ns] : layer_self_ns(spans.spans())) {
    out.set("self." + layer + "_ms", static_cast<double>(ns) / 1e6);
  }
}

}  // namespace hicbench
