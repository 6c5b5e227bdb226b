#include "trace/chrome.h"

#include "support/json.h"
#include "support/strings.h"

namespace hicsync::trace {

namespace chrome {

std::string process_name(int pid, std::string_view name) {
  return support::format(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"%s\"}}",
      pid, support::json_escape(name).c_str());
}

std::string thread_name(int pid, int tid, std::string_view name) {
  return support::format(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"name\":\"%s\"}}",
      pid, tid, support::json_escape(name).c_str());
}

std::string complete(std::string_view name, std::uint64_t ts,
                     std::uint64_t dur, int pid, int tid,
                     std::string_view args) {
  std::string out = support::format(
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
      "\"pid\":%d,\"tid\":%d",
      support::json_escape(name).c_str(), static_cast<unsigned long long>(ts),
      static_cast<unsigned long long>(dur), pid, tid);
  if (!args.empty()) {
    out += ",\"args\":";
    out += args;
  }
  out += '}';
  return out;
}

std::string instant(std::string_view name, std::uint64_t ts, int pid,
                    int tid, std::string_view args) {
  return support::format(
      "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%llu,"
      "\"pid\":%d,\"tid\":%d,\"args\":%.*s}",
      support::json_escape(name).c_str(), static_cast<unsigned long long>(ts),
      pid, tid, static_cast<int>(args.size()), args.data());
}

std::string document(const std::vector<std::string>& events) {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += events[i];
    if (i + 1 < events.size()) out += ",";
    out += "\n";
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace chrome

namespace {

std::string port_track_name(const Event& e) {
  std::string n = "bram" + std::to_string(e.controller) + "." +
                  to_string(e.port);
  if (e.pseudo_port >= 0 && e.port != PortKind::A) {
    n += std::to_string(e.pseudo_port);
  }
  return n;
}

/// Duration of a span closed at `end`; zero-length spans last one cycle so
/// the viewer still draws them.
std::uint64_t span_dur(std::uint64_t start, std::uint64_t end) {
  return end > start ? end - start : 1;
}

constexpr int kThreadPid = 1;
constexpr int kPortPid = 2;
constexpr int kDepPid = 3;

}  // namespace

ChromeTraceSink::Track ChromeTraceSink::track(int pid,
                                              const std::string& name) {
  std::string key = std::to_string(pid) + "/" + name;
  auto it = tracks_.find(key);
  if (it == tracks_.end()) {
    Track t;
    t.pid = pid;
    t.tid = ++next_tid_[pid];
    it = tracks_.emplace(key, t).first;
    events_.push_back(chrome::thread_name(t.pid, t.tid, name));
  }
  return it->second;
}

void ChromeTraceSink::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::PortGrant: {
      Track t = track(kPortPid, port_track_name(e));
      events_.push_back(chrome::instant(
          "grant", e.cycle, t.pid, t.tid,
          "{\"thread\":\"" + support::json_escape(e.thread) + "\"}"));
      break;
    }
    case EventKind::PortStall: {
      Track t = track(kPortPid, port_track_name(e));
      events_.push_back(chrome::instant(
          "stall", e.cycle, t.pid, t.tid,
          std::string("{\"cause\":\"") + to_string(e.cause) +
              "\",\"thread\":\"" + support::json_escape(e.thread) + "\"}"));
      break;
    }
    case EventKind::FsmState: {
      std::string thread(e.thread);
      Track t = track(kThreadPid, thread);
      OpenSpan& span = state_spans_[thread];
      if (span.open) {
        events_.push_back(chrome::complete(
            "S" + std::to_string(span.value), span.start,
            span_dur(span.start, e.cycle), t.pid, t.tid));
      }
      span.open = true;
      span.start = e.cycle;
      span.value = e.value;
      break;
    }
    case EventKind::ThreadBlock: {
      std::string thread(e.thread);
      track(kThreadPid, thread);
      OpenSpan& span = block_spans_[thread];
      span.open = true;
      span.start = e.cycle;
      break;
    }
    case EventKind::ThreadUnblock: {
      std::string thread(e.thread);
      Track t = track(kThreadPid, thread);
      OpenSpan& span = block_spans_[thread];
      if (span.open) {
        events_.push_back(chrome::complete("blocked", span.start,
                                           span_dur(span.start, e.cycle),
                                           t.pid, t.tid));
        span.open = false;
      }
      break;
    }
    case EventKind::Produce: {
      std::string dep(e.dep);
      track(kDepPid, dep);
      OpenSpan& span = round_spans_[dep];
      span.open = true;
      span.start = e.cycle;
      round_controller_[dep] = e.controller;
      break;
    }
    case EventKind::RoundComplete: {
      std::string dep(e.dep);
      Track t = track(kDepPid, dep);
      OpenSpan& span = round_spans_[dep];
      if (span.open) {
        events_.push_back(chrome::complete(
            "round " + dep, span.start, span_dur(span.start, e.cycle), t.pid,
            t.tid, "{\"latency\":" + std::to_string(e.value) + "}"));
        span.open = false;
      }
      break;
    }
    case EventKind::Consume:
    case EventKind::PortRequest:
    case EventKind::ArbWin:
    case EventKind::SlotAdvance:
    case EventKind::PassComplete:
      break;
  }
}

void ChromeTraceSink::finish(std::uint64_t final_cycle) {
  // Close any spans still open at the end of the run.
  for (auto& [thread, span] : state_spans_) {
    if (!span.open) continue;
    Track t = track(kThreadPid, thread);
    events_.push_back(chrome::complete("S" + std::to_string(span.value),
                                       span.start,
                                       span_dur(span.start, final_cycle),
                                       t.pid, t.tid));
    span.open = false;
  }
  for (auto& [thread, span] : block_spans_) {
    if (!span.open) continue;
    Track t = track(kThreadPid, thread);
    events_.push_back(chrome::complete("blocked", span.start,
                                       span_dur(span.start, final_cycle),
                                       t.pid, t.tid));
    span.open = false;
  }

  // Name the three process groups for the viewer's track tree.
  std::vector<std::string> lines;
  constexpr const char* kPidNames[] = {"threads", "controller ports",
                                       "dependencies"};
  for (int pid = kThreadPid; pid <= kDepPid; ++pid) {
    if (next_tid_.count(pid) == 0) continue;
    lines.push_back(chrome::process_name(pid, kPidNames[pid - 1]));
  }
  lines.insert(lines.end(), events_.begin(), events_.end());
  out_ = chrome::document(lines);
}

}  // namespace hicsync::trace
