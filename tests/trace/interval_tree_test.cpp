#include "xsp/trace/interval_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "xsp/common/rng.hpp"

namespace xsp::trace {
namespace {

using Tree = IntervalTree<int>;

Tree make_tree(std::vector<Tree::Entry> entries) { return Tree(std::move(entries)); }

TEST(IntervalTree, EmptyTreeHasNoMatches) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.containing(0, 1).empty());
  EXPECT_TRUE(t.overlapping(0, 1).empty());
}

TEST(IntervalTree, StabbingFindsContainingIntervals) {
  auto t = make_tree({{0, 100, 1}, {10, 20, 2}, {50, 60, 3}});
  std::vector<int> hits;
  t.visit_stabbing(15, [&](const Tree::Entry& e) { hits.push_back(e.value); });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
}

TEST(IntervalTree, StabbingAtBoundariesIsInclusive) {
  auto t = make_tree({{10, 20, 1}});
  int count = 0;
  t.visit_stabbing(10, [&](const Tree::Entry&) { ++count; });
  t.visit_stabbing(20, [&](const Tree::Entry&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(IntervalTree, ContainingRequiresFullInclusion) {
  auto t = make_tree({{0, 100, 1}, {10, 40, 2}, {30, 60, 3}});
  auto res = t.containing(35, 38);
  std::vector<int> hits;
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 2, 3}));

  res = t.containing(35, 50);  // extends past entry 2's end
  hits.clear();
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 3}));
}

TEST(IntervalTree, OverlappingFindsPartialOverlaps) {
  auto t = make_tree({{0, 10, 1}, {20, 30, 2}, {40, 50, 3}});
  auto res = t.overlapping(25, 45);
  std::vector<int> hits;
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{2, 3}));
}

TEST(IntervalTree, DisjointQueriesMissEverything) {
  auto t = make_tree({{0, 10, 1}, {20, 30, 2}});
  EXPECT_TRUE(t.overlapping(11, 19).empty());
  EXPECT_TRUE(t.containing(11, 12).empty());
}

TEST(IntervalTree, HandlesNestedSpanStructure) {
  // The shape timeline assembly produces: model contains layers contains
  // kernels; siblings are disjoint.
  auto t = make_tree({{0, 1000, 1},   // model
                      {0, 300, 10},   // layer 1
                      {300, 700, 11}, // layer 2
                      {700, 1000, 12}});
  auto res = t.containing(350, 400);
  std::vector<int> hits;
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 11}));
}

// Property check against a brute-force oracle over random interval sets, at
// sizes around the powers of two (a partial last subtree, a root exactly at
// a power of two, trees deeper than the linearly scanned subtrees).
enum class Layout { kShuffled, kSorted, kRepeatedLo };

std::vector<Tree::Entry> random_entries(std::size_t n, Layout layout, SplitMix64& rng) {
  std::vector<Tree::Entry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    // Repeated-lo inputs draw from 8 start points, so most starts collide.
    const auto lo = static_cast<TimePoint>(layout == Layout::kRepeatedLo ? rng.below(8) * 1'000
                                                                         : rng.below(10'000));
    const auto len = static_cast<TimePoint>(rng.below(500));
    entries.push_back({lo, lo + len, static_cast<int>(i)});
  }
  if (layout == Layout::kSorted) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Tree::Entry& a, const Tree::Entry& b) { return a.lo < b.lo; });
    for (std::size_t i = 0; i < n; ++i) entries[i].value = static_cast<int>(i);
  }
  return entries;
}

std::vector<int> sorted_values(const std::vector<const Tree::Entry*>& hits) {
  std::vector<int> out;
  for (const auto* e : hits) out.push_back(e->value);
  std::sort(out.begin(), out.end());
  return out;
}

class IntervalTreeRandomized
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(IntervalTreeRandomized, MatchesBruteForce) {
  const auto [n, seed] = GetParam();
  SplitMix64 rng(seed);
  for (const Layout layout : {Layout::kShuffled, Layout::kSorted, Layout::kRepeatedLo}) {
    const auto entries = random_entries(n, layout, rng);
    Tree tree(entries);
    ASSERT_EQ(tree.size(), n);
    EXPECT_EQ(tree.empty(), n == 0);

    for (int q = 0; q < 100; ++q) {
      const auto lo = static_cast<TimePoint>(rng.below(10'500));
      const auto hi = lo + static_cast<TimePoint>(rng.below(300));

      std::vector<int> expected_contain, expected_overlap, expected_stab;
      for (const auto& e : entries) {
        if (e.lo <= lo && e.hi >= hi) expected_contain.push_back(e.value);
        if (e.lo <= hi && e.hi >= lo) expected_overlap.push_back(e.value);
        if (e.lo <= lo && e.hi >= lo) expected_stab.push_back(e.value);
      }
      std::sort(expected_contain.begin(), expected_contain.end());
      std::sort(expected_overlap.begin(), expected_overlap.end());

      // Stabbing visits in array order: ascending lo, input order among
      // equal lo (values are assigned in input order).
      std::vector<int> got_stab;
      TimePoint prev_lo = 0;
      int prev_value = -1;
      tree.visit_stabbing(lo, [&](const Tree::Entry& e) {
        EXPECT_TRUE(e.lo > prev_lo || (e.lo == prev_lo && e.value > prev_value))
            << "visit order at n=" << n;
        prev_lo = e.lo;
        prev_value = e.value;
        got_stab.push_back(e.value);
      });
      std::sort(got_stab.begin(), got_stab.end());
      std::sort(expected_stab.begin(), expected_stab.end());

      EXPECT_EQ(sorted_values(tree.containing(lo, hi)), expected_contain)
          << "containing [" << lo << "," << hi << "] n=" << n;
      EXPECT_EQ(sorted_values(tree.overlapping(lo, hi)), expected_overlap)
          << "overlapping [" << lo << "," << hi << "] n=" << n;
      EXPECT_EQ(got_stab, expected_stab) << "stabbing " << lo << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IntervalTreeRandomized,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 3, 7, 8, 9, 15,
                                                                           16, 17, 200, 1000,
                                                                           5000),
                                            ::testing::Values<std::uint64_t>(1, 2, 3, 5)));

TEST(IntervalTree, DegenerateAllIdenticalIntervals) {
  std::vector<Tree::Entry> entries;
  for (int i = 0; i < 50; ++i) entries.push_back({100, 200, i});
  Tree t(std::move(entries));
  EXPECT_EQ(t.containing(150, 160).size(), 50u);
  EXPECT_TRUE(t.containing(50, 60).empty());
}

TEST(IntervalTree, PointIntervals) {
  auto t = make_tree({{5, 5, 1}, {7, 7, 2}});
  EXPECT_EQ(t.containing(5, 5).size(), 1u);
  EXPECT_EQ(t.overlapping(0, 10).size(), 2u);
  EXPECT_TRUE(t.containing(5, 7).empty());
}

}  // namespace
}  // namespace xsp::trace
