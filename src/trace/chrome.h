// Chrome-trace (chrome://tracing / Perfetto) JSON writer.
//
// trace::chrome holds the Trace Event Format pieces every Chrome-trace
// document in the toolchain is made of: the document envelope, the
// process/thread naming metadata and the complete ("X") and instant ("i")
// events. ChromeTraceSink below and the hic-rt service telemetry
// (rt/telemetry.h) both render through them.
//
// ChromeTraceSink renders the simulation event stream as one document with
// one track per thread (FSM-state spans, block spans) and one track per
// controller pseudo-port (grant instants, stall instants with the cause in
// args), plus a dependency track per controller carrying
// produce→round-complete spans. One simulation cycle maps to one
// microsecond of trace time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/bus.h"

namespace hicsync::trace {

namespace chrome {

/// Metadata event naming process `pid` in the viewer's track tree.
[[nodiscard]] std::string process_name(int pid, std::string_view name);
/// Metadata event naming track `tid` of process `pid`.
[[nodiscard]] std::string thread_name(int pid, int tid,
                                      std::string_view name);
/// Complete ("X") event; `args` is a rendered JSON object, or empty for
/// none.
[[nodiscard]] std::string complete(std::string_view name, std::uint64_t ts,
                                   std::uint64_t dur, int pid, int tid,
                                   std::string_view args = {});
/// Thread-scoped instant ("i") event; `args` is a rendered JSON object.
[[nodiscard]] std::string instant(std::string_view name, std::uint64_t ts,
                                  int pid, int tid, std::string_view args);
/// The whole document: `events` one per line inside the traceEvents
/// array, in order.
[[nodiscard]] std::string document(const std::vector<std::string>& events);

}  // namespace chrome

class ChromeTraceSink : public TraceSink {
 public:
  void on_event(const Event& e) override;
  void finish(std::uint64_t final_cycle) override;

  /// The complete JSON document. Valid after finish().
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  struct Track {
    int pid = 0;
    int tid = 0;
  };

  Track track(int pid, const std::string& name);

  // pid 1: threads, pid 2: controller ports, pid 3: dependencies.
  std::map<std::string, Track> tracks_;  // keyed "pid/name"
  std::map<int, int> next_tid_;
  std::vector<std::string> events_;      // serialized JSON objects

  struct OpenSpan {
    bool open = false;
    std::uint64_t start = 0;
    std::int64_t value = 0;
  };
  std::map<std::string, OpenSpan> state_spans_;  // thread -> current state
  std::map<std::string, OpenSpan> block_spans_;  // thread -> block span
  std::map<std::string, OpenSpan> round_spans_;  // dep -> open round
  std::map<std::string, int> round_controller_;  // dep -> controller id
  std::string out_;
};

}  // namespace hicsync::trace
