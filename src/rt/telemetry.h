// hic-rt request telemetry: per-command spans, stage-latency histograms,
// slow-request forensics and Chrome-trace export.
//
// Every command the service executes leaves a Span — steady-clock
// timestamps at each lifecycle edge (submit → enqueue → dequeue →
// execute → complete), the shard queue depth when it was enqueued, the
// simulator cycles it consumed, and the client-assigned trace-context tag
// from the wire protocol. Spans are captured on the shard worker thread
// into a per-shard bounded ring (oldest evicted first) under the shard's
// own telemetry mutex — never the shard queue lock the submit path
// contends on, so span capture cannot stretch a submitter's enqueue; with
// telemetry disabled the whole layer is a single branch per command, like
// an unattached trace bus.
//
// Three consumers:
//   * stage histograms in a trace::MetricsRegistry (submit/queue/execute/
//     complete/total microseconds, run cycles) with p50/p95/p99 — what the
//     `telemetry` wire op and `hic-rtd watch` report;
//   * the slow-request log: spans at or over the configured threshold are
//     promoted to a JSONL forensics record carrying the span, the
//     session's last-N span history and a snapshot of the shard's queue —
//     enough to answer "what was this shard doing when the request
//     stalled" after the fact;
//   * Chrome-trace export: one track per shard, one X event per span
//     (trace::ChromeTraceSink conventions), so a whole run renders as a
//     timeline in chrome://tracing or Perfetto.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/json.h"
#include "trace/metrics.h"

namespace hicsync::rt {

struct TelemetryOptions {
  /// Master switch. Off: no timestamps are taken, no spans recorded.
  bool enabled = false;
  /// Spans retained per shard; the ring evicts oldest-first beyond this.
  /// The default keeps the ring cache-resident: streaming ~200-byte spans
  /// through a multi-thousand-slot ring measurably taxes the sim's
  /// working set on small-cache hosts (~3% throughput at 4096 slots vs
  /// <1% here), so depth beyond recent-forensics needs is not free.
  std::size_t ring_capacity = 256;
  /// Spans whose submit→complete latency reaches this many microseconds
  /// are promoted to the slow-request log.
  std::uint64_t slow_threshold_us = 100000;
  /// JSONL file the promoted forensics records append to. Empty: records
  /// are counted and kept in the in-memory recent list only.
  std::string slow_log_path;
  /// Per-session span history carried into a forensics record.
  int history_depth = 8;
  /// In-memory recent slow-span summaries kept per shard (for the
  /// `telemetry` op's slow_recent list).
  std::size_t slow_recent = 16;
};

using TelemetryClock = std::chrono::steady_clock;

/// One command's lifecycle. `kind`/`error` use the service's stable
/// vocabulary; timestamps are steady-clock instants taken on the
/// submitting thread (submit/enqueue) and the shard worker (the rest).
struct Span {
  std::uint64_t session = 0;
  std::uint64_t sequence = 0;
  int shard = -1;
  const char* kind = "?";
  bool ok = true;
  std::string error;  // stable "rt-*: detail" when !ok
  std::string tag;    // client-assigned trace context ("" = untagged)
  std::uint64_t queue_depth = 0;  // shard queue depth at enqueue
  std::uint64_t cycles = 0;       // simulator cycles consumed (Run)

  TelemetryClock::time_point submit;    // client called the service
  TelemetryClock::time_point enqueue;   // pushed onto the shard queue
  TelemetryClock::time_point dequeue;   // worker popped it (execute begins)
  TelemetryClock::time_point exec_end;  // execute() returned
  TelemetryClock::time_point complete;  // promise/callback delivered

  [[nodiscard]] std::uint64_t submit_us() const;    // submit → enqueue
  [[nodiscard]] std::uint64_t queue_us() const;     // enqueue → dequeue
  [[nodiscard]] std::uint64_t execute_us() const;   // dequeue → exec_end
  [[nodiscard]] std::uint64_t complete_us() const;  // exec_end → complete
  [[nodiscard]] std::uint64_t total_us() const;     // submit → complete
};

/// One entry of a shard-queue snapshot in a forensics record.
struct QueuedCommand {
  std::uint64_t session = 0;
  const char* kind = "?";
};

/// Compressed span the per-session history ring keeps.
struct SpanBrief {
  std::uint64_t sequence = 0;
  const char* kind = "?";
  bool ok = true;
  std::uint64_t total_us = 0;
  std::string tag;
};

/// Fixed-capacity circular span history for one session. A plain vector
/// sized once on first use — per-command pushes never allocate or shift,
/// unlike a deque whose chunk churn showed up in the overhead bench.
struct SessionHistory {
  std::vector<SpanBrief> slots;
  std::size_t head = 0;  // next write slot
  std::size_t size = 0;  // live entries (<= slots.size())

  void push(SpanBrief brief, std::size_t depth);
  /// Invokes fn(brief) oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size; ++i) {
      fn(slots[(head + slots.size() - size + i) % slots.size()]);
    }
  }
};

/// Thread-safe JSONL appender shared by every shard's slow-path promotion.
/// An empty path counts entries without touching the filesystem.
class SlowRequestLog {
 public:
  explicit SlowRequestLog(std::string path);

  void append(const std::string& json_line);
  [[nodiscard]] std::uint64_t entries() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::uint64_t entries_ = 0;  // guarded by mu_
};

/// Per-shard telemetry state, synchronized by its own mutex. Only the
/// shard's worker writes (record / session_closed) and readers poll
/// rarely, so the worker's acquisition is effectively uncontended — and,
/// crucially, span capture never holds the shard queue lock that the
/// submit path blocks on.
class ShardTelemetry {
 public:
  ShardTelemetry(int shard, const TelemetryOptions& options,
                 TelemetryClock::time_point epoch);

  /// Records the span: ring push (evicting oldest past capacity), stage
  /// histograms, session history. Returns true when the span crossed the
  /// slow threshold, in which case *slow_json is the complete forensics
  /// JSONL line (span + session history + `queue_snapshot`) for the
  /// caller to append outside the shard lock.
  bool record(Span span, const std::vector<QueuedCommand>& queue_snapshot,
              std::string* slow_json);

  /// Drops the session's span history (the session closed).
  void session_closed(std::uint64_t session);

  [[nodiscard]] std::uint64_t spans_recorded() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;
  [[nodiscard]] std::uint64_t slow_count() const;
  /// Retained spans, oldest first (at most ring_capacity).
  [[nodiscard]] std::vector<Span> spans() const;
  /// Unsynchronized view of the stage histograms — valid only when the
  /// service is quiesced (after drain()/shutdown); live readers use
  /// render_json()/render_text() instead.
  [[nodiscard]] const trace::MetricsRegistry& registry() const {
    return registry_;
  }

  /// Writes this shard's telemetry object ({"shard":..,"stages":{..},..})
  /// as the next value of `w`. `queue_depth` is sampled by the caller.
  void render_json(support::JsonWriter& w, std::uint64_t queue_depth) const;

  /// Appends the human-readable shard summary (the `hic-rtd` stats view):
  /// a header line plus one line per populated stage histogram.
  void render_text(std::string* out, std::uint64_t queue_depth) const;

  /// Appends one serialized Chrome-trace X event per retained span
  /// (ts/dur in microseconds relative to the service epoch; pid 1,
  /// tid shard+1 — the caller emits the matching metadata events).
  void append_chrome_events(std::vector<std::string>* events) const;

  /// Worker busy time accumulated across executed commands, µs.
  [[nodiscard]] std::uint64_t busy_us() const;

 private:
  struct Stage {
    const char* name;
    std::uint64_t (Span::*value)() const;
  };
  static const Stage kStages[5];

  void render_slow_line(const Span& span,
                        const std::vector<QueuedCommand>& queue_snapshot,
                        const SessionHistory& history,
                        std::string* out) const;

  int shard_ = -1;
  TelemetryOptions options_;
  TelemetryClock::time_point epoch_;

  /// Guards everything below. Held only by the owning worker's record()
  /// and by occasional poll reads — never by the submit path.
  mutable std::mutex mu_;

  // Histograms are created once at construction and recorded through
  // cached pointers — record() must not pay a name lookup per command.
  trace::Histogram* stage_hist_[5] = {};
  trace::Histogram* cycles_hist_ = nullptr;

  std::vector<Span> ring_;  // circular, ring_head_ = next write slot
  std::size_t ring_head_ = 0;
  bool ring_full_ = false;

  trace::MetricsRegistry registry_;
  // Hashed, not ordered: looked up once per command, and a busy service
  // holds hundreds of live sessions per shard.
  std::unordered_map<std::uint64_t, SessionHistory> history_;
  std::deque<SpanBrief> slow_recent_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t slow_ = 0;
  std::uint64_t busy_us_ = 0;
};

/// Composes the full Chrome-trace document from per-shard event lists:
/// process/thread metadata (process "hic-rt", one named track per shard)
/// followed by the span events, in the trace::chrome document envelope.
[[nodiscard]] std::string compose_chrome_trace(
    int shards, const std::vector<std::string>& events);

}  // namespace hicsync::rt
