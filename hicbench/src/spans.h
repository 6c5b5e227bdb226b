// The benchmark's span recorder.
//
// Spans are recorded by the benchmark's own code around each public call
// it makes into a layer (core, rtl, sim, rt, wire) and around its own
// loops (layer "bench"). Each span has a name, a layer, start and end
// instants, the span that caused it and a request id shared by the spans
// of one request. Spans stay in memory and are written once, when the
// run ends. A null recorder records nothing. Names and layers are string
// literals (static storage), so recording a span allocates nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hicbench {

struct Span {
  std::uint64_t id = 0;      // 1-based; 0 means "no span"
  std::uint64_t parent = 0;  // id of the causing span, 0 for a root
  std::uint64_t request = 0;
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;  // steady-clock nanoseconds
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span now and returns its id.
  std::uint64_t begin(const char* name, const char* layer,
                      std::uint64_t parent, std::uint64_t request);
  /// Closes span `id` now.
  void end(std::uint64_t id);

  /// Every span recorded so far, in id order.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// The spans with their self times, as one JSON document.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Span> spans_;  // index = id - 1
};

/// RAII span; does nothing when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* layer,
             std::uint64_t parent = 0, std::uint64_t request = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      id_ = recorder_->begin(name, layer, parent, request);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_ = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children (children recorded
/// from several threads) are counted once. Same order as `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Sum of self times per layer, in nanoseconds.
[[nodiscard]] std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans);

/// Steady-clock nanoseconds, the timebase of every span.
[[nodiscard]] inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace hicbench
