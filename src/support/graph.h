// The graph algorithms every layer shares: one iterative Tarjan SCC and
// one Kahn topological sort.
//
// The producer -> consumer pragmas make a program a dependency graph, and
// the toolchain asks cycle and order questions of it and of the
// controllers it generates: deadlock cycles (analysis), blocking cycles
// (bound), fairness cycles in the explored state graph (verify),
// combinational loops (nlint) and evaluation order (rtl). They all route
// through here. Successors come from a callable `succ(v)` returning an
// indexable range of vertex ids (size() and operator[]), so no adjacency
// is copied and no std::function sits in the inner loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace hicsync::support {

/// The default vertex filter: keeps every vertex.
struct AllVertices {
  bool operator()(int /*v*/) const { return true; }
};

/// A `succ` over an adjacency list: the successors of v are adj[v].
inline auto successors_in(const std::vector<std::vector<int>>& adj) {
  return [&adj](int v) -> const std::vector<int>& {
    return adj[static_cast<std::size_t>(v)];
  };
}

/// Strongly connected components of the graph on vertices [0, n), by one
/// iterative Tarjan pass (no recursion, so graph depth is unbounded).
///
/// The DFS takes roots in ascending order and successors in list order.
/// `keep(v)` false skips v: it is never a root, edges into it are ignored,
/// and comp(v) is -1. Components are numbered in the order they complete,
/// a reverse topological order of the condensation: an edge between two
/// components always goes from the higher id to the lower.
///
/// The object keeps its buffers between runs, so one instance reused over
/// many graphs allocates only when a graph outgrows the largest before it.
class Scc {
 public:
  template <typename Succ, typename Keep = AllVertices>
  void run(int n, const Succ& succ, const Keep& keep = {});

  [[nodiscard]] int count() const {
    return static_cast<int>(first_.size()) - 1;
  }
  /// Component id of `v`, or -1 when `v` was skipped.
  [[nodiscard]] int comp(int v) const {
    return comp_[static_cast<std::size_t>(v)];
  }
  /// The vertices of component `c`, in the order Tarjan popped them off
  /// its stack (the last-discovered vertex first); valid until the next
  /// run.
  [[nodiscard]] std::span<const int> members(int c) const;

 private:
  struct Frame {
    int v;
    std::size_t next;
  };
  void reset(int n);
  void discover(int v);
  void finish(int v);

  std::vector<int> index_;  // discovery index, -1 = unvisited
  std::vector<int> lowlink_;
  std::vector<int> comp_;   // -1 while unvisited or on the stack
  std::vector<int> stack_;
  std::vector<Frame> frames_;
  std::vector<int> order_;  // members of every component, grouped
  std::vector<int> first_;  // component c is order_[first_[c], first_[c+1])
  int next_index_ = 0;
};

template <typename Succ, typename Keep>
void Scc::run(int n, const Succ& succ, const Keep& keep) {
  reset(n);
  for (int root = 0; root < n; ++root) {
    if (index_[static_cast<std::size_t>(root)] >= 0 || !keep(root)) continue;
    discover(root);
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const auto& out = succ(f.v);
      const auto u = static_cast<std::size_t>(f.v);
      bool descended = false;
      while (f.next < out.size()) {
        const int w = static_cast<int>(out[f.next++]);
        const auto wi = static_cast<std::size_t>(w);
        if (!keep(w)) continue;
        if (index_[wi] < 0) {
          discover(w);  // invalidates f
          descended = true;
          break;
        }
        // Visited but not yet in a component: w is on the stack.
        if (comp_[wi] < 0) {
          lowlink_[u] = std::min(lowlink_[u], index_[wi]);
        }
      }
      if (!descended) finish(f.v);
    }
  }
}

/// Kahn's topological sort of the vertices [0, n) with a LIFO ready list:
/// the sources are stacked in ascending order, and a vertex is stacked when
/// its last incoming edge is consumed, in its predecessor's successor-list
/// order. Every edge's source comes before its target. On a cycle the
/// order stops short: fewer than n vertices come back.
template <typename Succ>
std::vector<int> topological_order(int n, const Succ& succ) {
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    for (const auto w : succ(v)) ++indegree[static_cast<std::size_t>(w)];
  }
  std::vector<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (const auto w : succ(v)) {
      if (--indegree[static_cast<std::size_t>(w)] == 0) {
        ready.push_back(static_cast<int>(w));
      }
    }
  }
  return order;
}

}  // namespace hicsync::support
