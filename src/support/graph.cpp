#include "support/graph.h"

namespace hicsync::support {

std::span<const int> Scc::members(int c) const {
  const auto ci = static_cast<std::size_t>(c);
  return std::span<const int>(order_).subspan(
      static_cast<std::size_t>(first_[ci]),
      static_cast<std::size_t>(first_[ci + 1] - first_[ci]));
}

void Scc::reset(int n) {
  const auto size = static_cast<std::size_t>(n);
  index_.assign(size, -1);
  lowlink_.resize(size);  // written on discovery, before any read
  comp_.assign(size, -1);
  stack_.clear();
  frames_.clear();
  order_.clear();
  first_.assign(1, 0);
  next_index_ = 0;
}

void Scc::discover(int v) {
  const auto vi = static_cast<std::size_t>(v);
  index_[vi] = lowlink_[vi] = next_index_++;
  stack_.push_back(v);
  frames_.push_back(Frame{v, 0});
}

void Scc::finish(int v) {
  const auto vi = static_cast<std::size_t>(v);
  frames_.pop_back();
  if (!frames_.empty()) {
    const auto p = static_cast<std::size_t>(frames_.back().v);
    lowlink_[p] = std::min(lowlink_[p], lowlink_[vi]);
  }
  if (lowlink_[vi] != index_[vi]) return;
  // v roots a component: everything above it on the stack belongs to it.
  const int c = count();
  int w = -1;
  while (w != v) {
    w = stack_.back();
    stack_.pop_back();
    comp_[static_cast<std::size_t>(w)] = c;
    order_.push_back(w);
  }
  first_.push_back(static_cast<int>(order_.size()));
}

}  // namespace hicsync::support
