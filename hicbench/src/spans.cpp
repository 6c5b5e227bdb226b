#include "spans.h"

#include <algorithm>

#include "support/json.h"

namespace hicbench {

std::uint64_t SpanRecorder::begin(const char* name, const char* layer,
                                  std::uint64_t parent,
                                  std::uint64_t request) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start_ns = steady_ns();
  span.id = spans_.size() + 1;
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = steady_ns();
}

std::string SpanRecorder::json() const {
  const std::vector<Span>& all = spans_;
  const std::vector<std::int64_t> self = self_times_ns(all);
  const std::int64_t epoch = all.empty() ? 0 : all.front().start_ns;
  hicsync::support::JsonWriter w(0);
  w.begin_object();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.key("id").value(s.id);
    w.key("parent").value(s.parent);
    w.key("request").value(s.request);
    w.key("name").value(s.name);
    w.key("layer").value(s.layer);
    w.key("start_us").value(static_cast<double>(s.start_ns - epoch) / 1e3);
    w.key("end_us").value(static_cast<double>(s.end_ns - epoch) / 1e3);
    w.key("self_us").value(static_cast<double>(self[i]) / 1e3);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's own interval.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, s.start_ns);
      end = std::min(end, s.end_ns);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max<std::int64_t>(0, (s.end_ns - s.start_ns) - covered);
  }
  return self;
}

std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].layer] += self[i];
  }
  return out;
}

}  // namespace hicbench
