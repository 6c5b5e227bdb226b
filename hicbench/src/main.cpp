// hic-bench: one benchmark for the compiler, simulator and hic-rtd paths.
//
//   hic-bench --workload sim_fanout|compile_corpus|rt_socket
//             [--seed N] [--seconds S] [--trace 0|1] [--write-expected]
//
// Run from the repository root. Human-readable lines come first; the last
// line of stdout is one JSON object {"correct","attempted","failed",
// "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run (--trace 1) the per-layer
// metrics (hicbench/README.md). Any failed output check makes the exit
// code 1; bad usage is 2.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using hicbench::MetricSpec;
using hicbench::Options;
using hicbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "hic-bench: %s\n"
               "usage: hic-bench --workload sim_fanout|compile_corpus|"
               "rt_socket [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--write-expected]\n",
               why);
  return 2;
}

// The result line. Every metric of the run's list is present; a per-layer
// metric of a layer this workload does not exercise reads 0.
std::string result_line(const Outcome& out,
                        const std::vector<MetricSpec>& specs) {
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted());
  line += ", \"failed\": " + std::to_string(out.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : specs) {
    auto it = out.metrics().find(m.name);
    const double value = it == out.metrics().end() ? 0.0 : it->second;
    char number[64];
    std::snprintf(number, sizeof number, "%.12g", value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--write-expected") {
      options.write_expected = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace") {
      const char* value = next();
      if (value == nullptr) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(value, &end, 10);
        if (end == value || *end != '\0') return usage("bad --seed");
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(value, &end);
        if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
            options.seconds > 120.0) {
          return usage("--seconds must be in (0, 120]");
        }
      } else {
        const std::string v = value;
        if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
        options.trace = v == "1";
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  void (*workload)(const Options&, hicbench::SpanRecorder*, Outcome&) =
      nullptr;
  if (options.workload == "sim_fanout") {
    workload = hicbench::run_sim_fanout;
  } else if (options.workload == "compile_corpus") {
    workload = hicbench::run_compile_corpus;
  } else if (options.workload == "rt_socket") {
    workload = hicbench::run_rt_socket;
  } else {
    return usage("unknown or missing --workload");
  }

  std::error_code ec;
  std::filesystem::create_directories(hicbench::kRunDir, ec);
  if (ec) {
    std::fprintf(stderr, "hic-bench: cannot create %s: %s\n",
                 hicbench::kRunDir, ec.message().c_str());
    return 2;
  }

  std::printf("hic-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Outcome out;
  hicbench::SpanRecorder recorder;
  try {
    workload(options, options.trace ? &recorder : nullptr, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hic-bench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.write_expected) return out.correct() ? 0 : 1;
  if (out.attempted() == 0) out.fail("no operation was attempted");
  out.note("error_rate",
           static_cast<double>(out.failed()) /
               static_cast<double>(std::max<std::uint64_t>(1, out.attempted())),
           "ratio");

  std::vector<MetricSpec> specs = hicbench::end_to_end_metrics();
  if (options.trace) {
    hicbench::add_layer_self_times(recorder, out);
    specs = hicbench::per_layer_metrics();
    const std::string path =
        std::string(hicbench::kRunDir) + "/" + options.workload + ".spans.json";
    if (!hicbench::write_file(path, recorder.json())) {
      out.fail("cannot write " + path);
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  } else {
    for (const MetricSpec& m : specs) {
      auto it = out.metrics().find(m.name);
      if (it == out.metrics().end() || !(it->second > 0.0)) {
        out.fail("end-to-end metric " + m.name + " was not measured");
      }
    }
  }
  std::printf("%s\n", result_line(out, specs).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
