#include "analysis/depgraph.h"

#include <algorithm>

#include "support/graph.h"

namespace hicsync::analysis {

ThreadDepGraph ThreadDepGraph::build(
    const hic::Program& program, const std::vector<hic::Dependency>& deps) {
  ThreadDepGraph g;
  for (const auto& t : program.threads) g.threads_.push_back(t.name);
  g.adjacency_.assign(g.threads_.size(), {});
  for (const auto& dep : deps) {
    int from = g.thread_index(dep.producer_thread);
    if (from < 0) continue;
    for (const auto& c : dep.consumers) {
      int to = g.thread_index(c.thread);
      if (to < 0) continue;
      g.edges_.push_back(Edge{from, to, &dep});
      g.adjacency_[static_cast<std::size_t>(from)].push_back(to);
    }
  }
  return g;
}

int ThreadDepGraph::thread_index(const std::string& name) const {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::vector<int>> ThreadDepGraph::deadlock_cycles() const {
  auto succ = support::successors_in(adjacency_);
  support::Scc scc;
  scc.run(static_cast<int>(threads_.size()), succ);
  std::vector<std::vector<int>> cycles;
  for (int c = 0; c < scc.count(); ++c) {
    std::span<const int> members = scc.members(c);
    // Keep only real cycles: multi-node SCCs or explicit self loops.
    const auto& adj = succ(members[0]);
    if (members.size() == 1 &&
        std::find(adj.begin(), adj.end(), members[0]) == adj.end()) {
      continue;
    }
    std::vector<int> cycle(members.begin(), members.end());
    std::sort(cycle.begin(), cycle.end());
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

std::vector<int> ThreadDepGraph::topological_order() const {
  std::vector<int> order = support::topological_order(
      static_cast<int>(threads_.size()), support::successors_in(adjacency_));
  if (order.size() != threads_.size()) return {};
  return order;
}

std::vector<std::string> ThreadDepGraph::deadlock_reports() const {
  std::vector<std::string> out;
  for (const auto& cycle : deadlock_cycles()) {
    std::string msg = "potential deadlock: threads {";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += threads_[static_cast<std::size_t>(cycle[i])];
    }
    msg += "} form a producer/consumer cycle";
    // Name the dependencies inside the cycle.
    msg += " via";
    bool first = true;
    for (const Edge& e : edges_) {
      bool from_in = std::find(cycle.begin(), cycle.end(), e.from) != cycle.end();
      bool to_in = std::find(cycle.begin(), cycle.end(), e.to) != cycle.end();
      if (from_in && to_in) {
        msg += first ? " " : ", ";
        msg += e.dep->id;
        first = false;
      }
    }
    out.push_back(std::move(msg));
  }
  return out;
}

}  // namespace hicsync::analysis
