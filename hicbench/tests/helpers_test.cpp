// Tests of hic-bench's own helpers: the statistics, the span recorder's
// self-time computation, seed derivation, and the agreement between the
// metric lists the binary prints and BENCHMARK.json.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"
#include "stats.h"
#include "support/json.h"

namespace hicbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyondTheReportedRank) {
  // 1000 samples: p99 is the 990th value and 10 lie above it.
  auto p = tail_percentile(one_to(1000), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 990.0);
  EXPECT_EQ(p->beyond, 10u);
  EXPECT_DOUBLE_EQ(p->quantile, 0.99);

  // 100 samples: p99 would leave one sample beyond it, so the rule lowers
  // the reported percentile to p90.
  p = tail_percentile(one_to(100), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 90.0);
  EXPECT_EQ(p->beyond, 10u);
  EXPECT_DOUBLE_EQ(p->quantile, 0.90);

  // A low percentile is not lowered further.
  p = tail_percentile(one_to(100), 0.5);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 50.0);
  EXPECT_EQ(p->beyond, 50u);
}

TEST(TailPercentile, NeedsMoreSamplesThanTheMargin) {
  EXPECT_FALSE(tail_percentile(one_to(10), 0.99).has_value());
  auto p = tail_percentile(one_to(11), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 1.0);
  EXPECT_EQ(p->beyond, 10u);
}

TEST(Geomean, EqualWeightsAndInvalidInput) {
  EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
}

Span make_span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
               std::int64_t end, const char* layer = "bench") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0, 100]; children [10, 30] and [20, 50] overlap, [90, 120]
  // runs past the parent's end. Covered: [10, 50] + [90, 100] = 50.
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 100), make_span(2, 1, 10, 30, "wire"),
      make_span(3, 1, 20, 50, "wire"), make_span(4, 1, 90, 120, "wire")};
  const auto self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  const auto layers = layer_self_ns(spans);
  EXPECT_EQ(layers.at("bench"), 50);
  EXPECT_EQ(layers.at("wire"), 80);
}

TEST(SelfTime, NestedAndContainedChildren) {
  // A child inside another child's interval does not reduce the parent
  // twice; grandchildren only reduce their own parent.
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 100), make_span(2, 1, 0, 60),
      make_span(3, 1, 10, 20), make_span(4, 2, 30, 40)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SpanRecorder, RecordsNestedScopesAndIgnoresNull) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", "bench", 0, 7);
    ScopedSpan inner(&recorder, "inner", "sim", outer.id(), 7);
    ScopedSpan none(nullptr, "none", "sim");
    EXPECT_EQ(none.id(), 0u);
  }
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  hicsync::support::JsonValue doc;
  ASSERT_TRUE(hicsync::support::parse_json(recorder.json(), &doc));
  EXPECT_EQ(doc.find("spans")->elements.size(), 2u);
}

TEST(DeriveSeed, DeterministicAndSpread) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 100; ++a) seen.insert(derive_seed(1, a));
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(derive_seed(1, 5), derive_seed(2, 5));
}

std::vector<std::string> names_in(const hicsync::support::JsonValue& doc,
                                  const char* key) {
  std::vector<std::string> out;
  for (const auto& e : doc.find(key)->elements) {
    out.push_back(e.find("name")->string_value);
  }
  return out;
}

TEST(MetricLists, MatchBenchmarkJson) {
  hicsync::support::JsonValue doc;
  ASSERT_TRUE(load_json(HICBENCH_JSON, &doc));
  std::vector<std::string> e2e;
  for (const MetricSpec& m : end_to_end_metrics()) e2e.push_back(m.name);
  std::vector<std::string> layers;
  for (const MetricSpec& m : per_layer_metrics()) layers.push_back(m.name);
  EXPECT_EQ(names_in(doc, "end_to_end"), e2e);
  EXPECT_EQ(names_in(doc, "per_layer"), layers);
  std::set<std::string> unique(layers.begin(), layers.end());
  unique.insert(e2e.begin(), e2e.end());
  EXPECT_EQ(unique.size(), layers.size() + e2e.size());
  EXPECT_LE(layers.size(), 128u);
}

}  // namespace
}  // namespace hicbench
