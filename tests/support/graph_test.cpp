#include "support/graph.h"

#include <gtest/gtest.h>

#include <vector>

namespace hicsync::support {
namespace {

using Adj = std::vector<std::vector<int>>;

std::vector<int> members_of(const Scc& scc, int c) {
  return {scc.members(c).begin(), scc.members(c).end()};
}

TEST(Graph, SccIdsAreReverseTopological) {
  // Three cycles chained into a DAG: {0,1} -> {2,3,4} -> {5}, plus a
  // shortcut {0,1} -> {5}.
  const Adj adj = {{1}, {0, 2, 5}, {3}, {4}, {2, 5}, {5}};
  Scc scc;
  scc.run(static_cast<int>(adj.size()), successors_in(adj));
  ASSERT_EQ(scc.count(), 3);
  EXPECT_EQ(scc.comp(5), 0);
  EXPECT_EQ(scc.comp(2), 1);
  EXPECT_EQ(scc.comp(3), 1);
  EXPECT_EQ(scc.comp(4), 1);
  EXPECT_EQ(scc.comp(0), 2);
  EXPECT_EQ(scc.comp(1), 2);
  // Every edge between components runs from a higher id to a lower one.
  for (int v = 0; v < static_cast<int>(adj.size()); ++v) {
    for (int w : adj[static_cast<std::size_t>(v)]) {
      EXPECT_GE(scc.comp(v), scc.comp(w)) << v << " -> " << w;
    }
  }
  // Members come out in pop order: the last-discovered vertex first.
  EXPECT_EQ(members_of(scc, 1), (std::vector<int>{4, 3, 2}));
  EXPECT_EQ(members_of(scc, 2), (std::vector<int>{1, 0}));
}

TEST(Graph, SelfLoopIsItsOwnComponentLikeAnIsolatedVertex) {
  // Both vertices form singleton components; only the adjacency tells a
  // self-loop (vertex 0) from an isolated vertex (vertex 1).
  const Adj adj = {{0}, {}};
  Scc scc;
  scc.run(2, successors_in(adj));
  ASSERT_EQ(scc.count(), 2);
  EXPECT_EQ(members_of(scc, scc.comp(0)), std::vector<int>{0});
  EXPECT_EQ(members_of(scc, scc.comp(1)), std::vector<int>{1});
  EXPECT_NE(scc.comp(0), scc.comp(1));
}

TEST(Graph, SkippedVerticesAreNeitherRootsNorTargets) {
  // 0 -> 1 -> 2 -> 0 is a cycle only through the skipped vertex 1; 3 has
  // no edges at all.
  const Adj adj = {{1, 3}, {2}, {0}, {}};
  Scc scc;
  scc.run(4, successors_in(adj), [](int v) { return v != 1; });
  EXPECT_EQ(scc.comp(1), -1);
  ASSERT_EQ(scc.count(), 3);
  EXPECT_EQ(scc.comp(3), 0);  // reached from 0, completes first
  EXPECT_EQ(scc.comp(0), 1);
  EXPECT_EQ(scc.comp(2), 2);  // a root of its own: 1 is not followed
  for (int c = 0; c < scc.count(); ++c) {
    EXPECT_EQ(scc.members(c).size(), 1u);
  }
}

TEST(Graph, ReusedSccResetsBetweenRuns) {
  Scc scc;
  const Adj ring = {{1}, {2}, {0}};
  scc.run(3, successors_in(ring));
  EXPECT_EQ(scc.count(), 1);
  const Adj chain = {{1}, {}};
  scc.run(2, successors_in(chain));
  ASSERT_EQ(scc.count(), 2);
  EXPECT_EQ(scc.comp(1), 0);
  EXPECT_EQ(scc.comp(0), 1);
}

TEST(Graph, LongChainAndRingNeedNoRecursion) {
  constexpr int kN = 100000;
  Adj chain(kN);
  Adj ring(kN);
  for (int v = 0; v < kN; ++v) {
    if (v + 1 < kN) chain[static_cast<std::size_t>(v)].push_back(v + 1);
    ring[static_cast<std::size_t>(v)].push_back((v + 1) % kN);
  }
  Scc scc;
  scc.run(kN, successors_in(chain));
  EXPECT_EQ(scc.count(), kN);
  EXPECT_EQ(scc.comp(kN - 1), 0);
  EXPECT_EQ(scc.comp(0), kN - 1);
  scc.run(kN, successors_in(ring));
  ASSERT_EQ(scc.count(), 1);
  EXPECT_EQ(scc.members(0).size(), static_cast<std::size_t>(kN));

  const std::vector<int> order = topological_order(kN, successors_in(chain));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), kN - 1);
  EXPECT_TRUE(topological_order(kN, successors_in(ring)).empty());
}

TEST(Graph, TopologicalOrderRespectsEveryEdge) {
  const Adj adj = {{3}, {3, 4}, {4}, {5}, {5}, {}};
  const std::vector<int> order =
      topological_order(static_cast<int>(adj.size()), successors_in(adj));
  ASSERT_EQ(order.size(), adj.size());
  std::vector<int> pos(adj.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (std::size_t v = 0; v < adj.size(); ++v) {
    for (int w : adj[v]) {
      EXPECT_LT(pos[v], pos[static_cast<std::size_t>(w)]) << v << " -> " << w;
    }
  }
  // LIFO ready list: the highest-numbered source goes first.
  EXPECT_EQ(order.front(), 2);
}

TEST(Graph, TopologicalOrderStopsShortOnACycle) {
  // 0 -> 1 -> 2 -> 1: only the source 0 can be emitted.
  const Adj adj = {{1}, {2}, {1}};
  const std::vector<int> order = topological_order(3, successors_in(adj));
  EXPECT_EQ(order, std::vector<int>{0});
}

}  // namespace
}  // namespace hicsync::support
