// Shared plumbing of the hic-bench workloads: command-line options, the
// result every workload fills in, seed derivation and small helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace hicsync::support {
class JsonValue;
}

namespace hicbench {

/// The seed used when --seed is not given (README.md names the second
/// seed kept back for confirming claims).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Regenerate the workload's expected file instead of checking it.
  bool write_expected = false;
};

/// Where runs write their spans and rt_socket its sockets, relative to the
/// repository root the benchmark runs from (inputs are read from there
/// too: examples/, hicbench/expected/).
inline constexpr const char* kRunDir = ".bench_build/run";

/// What one workload run reports. Metric names follow BENCHMARK.json.
class Outcome {
 public:
  /// Counts one attempted operation, failed or not.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Counts a failed check that is not itself an operation (a wrong
  /// expected-file entry, a missing input); prints `why` on stderr.
  void fail(const std::string& why);
  /// Prints `why` for an operation already counted by attempt(false).
  void report_failure(const std::string& why);

  void set(const std::string& name, double value) { metrics_[name] = value; }
  /// Human-readable line: a metric of the workload named as in the
  /// issue's vocabulary (sim.arb.cycles_per_s, rt.p99_us, ...) with unit.
  void note(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const { return failed_ == 0 && !broken_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, double>& metrics() const {
    return metrics_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool broken_ = false;
  int printed_ = 0;
  std::map<std::string, double> metrics_;
};

/// The end-to-end figures of one measuring window (README.md defines them
/// per workload).
struct Summary {
  double arb_us = 0.0;
  double ed_us = 0.0;
  double total_ms = 0.0;
};

/// Sets the end-to-end metrics of an untraced run: `w`, the median of the
/// set-up times and the peak RSS.
void report_end_to_end(const Summary& w, const std::vector<double>& setup_s,
                       double peak_rss_mb, Outcome& out);
/// Sets overhead.<metric> = traced - untraced.
void report_overhead(const Summary& untraced, const Summary& traced,
                     Outcome& out);

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints, and the per-layer
/// metrics every traced run prints, in BENCHMARK.json order.
[[nodiscard]] std::vector<MetricSpec> end_to_end_metrics();
[[nodiscard]] std::vector<MetricSpec> per_layer_metrics();

/// splitmix64 over the workload seed and up to two indices: every run
/// seed, produce word and session order derives from --seed this way.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0);

[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] bool read_file(const std::string& path, std::string* out);
[[nodiscard]] bool write_file(const std::string& path,
                              const std::string& text);
/// Parses `path` as JSON; false (and a message on stderr) on failure.
[[nodiscard]] bool load_json(const std::string& path,
                             hicsync::support::JsonValue* out);

/// The expected file of a workload: hicbench/expected/<workload>.json.
[[nodiscard]] std::string expected_path(const Options& options);

/// Adds each layer's summed self time (`self.<layer>_ms`) to `out`.
void add_layer_self_times(const SpanRecorder& spans, Outcome& out);

/// Workloads. Each returns after filling `out`; the traced variant fills
/// the per-layer metrics of its layers and leaves the rest to main.
void run_sim_fanout(const Options& options, SpanRecorder* spans,
                    Outcome& out);
void run_compile_corpus(const Options& options, SpanRecorder* spans,
                        Outcome& out);
void run_rt_socket(const Options& options, SpanRecorder* spans,
                   Outcome& out);

}  // namespace hicbench
