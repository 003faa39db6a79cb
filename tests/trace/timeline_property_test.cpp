// Property tests: randomized nested traces checked against a brute-force
// parent-assignment oracle, and structural invariants of assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "xsp/common/rng.hpp"
#include "xsp/trace/timeline.hpp"

namespace xsp::trace {
namespace {

/// Generate a random strictly-nested trace: the model span covers
/// disjoint layer spans, each covering disjoint kernel spans.
std::vector<Span> random_nested_trace(std::uint64_t seed, int layers, int kernels_per_layer) {
  SplitMix64 rng(seed);
  std::vector<Span> spans;
  SpanId next_id = 1;

  Span model;
  model.id = next_id++;
  model.level = kModelLevel;
  model.name = "Predict";
  model.begin = 0;

  TimePoint t = 10;
  for (int l = 0; l < layers; ++l) {
    Span layer;
    layer.id = next_id++;
    layer.level = kLayerLevel;
    layer.name = "layer_" + std::to_string(l);
    layer.begin = t;
    TimePoint kt = t + 1 + static_cast<TimePoint>(rng.below(5));
    for (int k = 0; k < kernels_per_layer; ++k) {
      Span kernel;
      kernel.id = next_id++;
      kernel.level = kKernelLevel;
      kernel.name = "kernel_" + std::to_string(l) + "_" + std::to_string(k);
      kernel.begin = kt;
      kernel.end = kt + 1 + static_cast<TimePoint>(rng.below(50));
      kt = kernel.end + 1 + static_cast<TimePoint>(rng.below(5));
      spans.push_back(kernel);
    }
    layer.end = kt + static_cast<TimePoint>(rng.below(5));
    t = layer.end + 1 + static_cast<TimePoint>(rng.below(10));
    spans.push_back(layer);
  }
  model.end = t + 5;
  spans.push_back(model);
  return spans;
}

/// Brute-force oracle: smallest enclosing span at the nearest lower level
/// that has any spans (mirroring assembly's absent-level fall-through).
std::map<SpanId, SpanId> oracle_parents(const std::vector<Span>& spans) {
  std::map<SpanId, SpanId> parents;
  std::map<int, int> level_counts;
  for (const auto& s : spans) level_counts[s.level] += 1;

  for (const auto& child : spans) {
    int parent_level = child.level - 1;
    while (parent_level >= kApplicationLevel && level_counts[parent_level] == 0) {
      --parent_level;
    }
    SpanId best = kNoSpan;
    Ns best_len = 0;
    for (const auto& cand : spans) {
      if (cand.level != parent_level) continue;
      if (cand.begin <= child.begin && cand.end >= child.end) {
        if (best == kNoSpan || cand.duration() < best_len) {
          best = cand.id;
          best_len = cand.duration();
        }
      }
    }
    parents[child.id] = best;
  }
  return parents;
}

/// A trace with what random_nested_trace avoids: sibling layers that
/// overlap (parallel twins with identical intervals and equal-length shifted
/// copies, so parents tie), a library level present on only some seeds, and
/// launch/exec pairs whose execution outlives its layer (some launches lose
/// their execution span).
std::vector<Span> random_parallel_trace(std::uint64_t seed, int layers) {
  SplitMix64 rng(seed);
  const bool with_library = rng.below(2) == 0;
  std::vector<Span> spans;
  SpanId next_id = 1;
  std::uint64_t next_correlation = 1;
  const auto add = [&](int level, TimePoint begin, TimePoint end) -> Span& {
    Span s;
    s.id = next_id++;
    s.level = level;
    s.name = "span_" + std::to_string(s.id);
    s.begin = begin;
    s.end = end;
    spans.push_back(s);
    return spans.back();
  };

  TimePoint t = 10;
  TimePoint last_end = t;
  for (int l = 0; l < layers; ++l) {
    const auto len = static_cast<TimePoint>(40 + rng.below(60));
    add(kLayerLevel, t, t + len);
    switch (rng.below(4)) {
      case 0:  // a parallel twin over the same interval
        add(kLayerLevel, t, t + len);
        break;
      case 1: {  // an equal-length sibling overlapping it
        const auto shift = static_cast<TimePoint>(1 + rng.below(static_cast<std::uint64_t>(len) / 2));
        add(kLayerLevel, t + shift, t + shift + len);
        last_end = std::max(last_end, t + shift + len);
        break;
      }
      default:
        break;
    }
    if (with_library) add(kLibraryLevel, t + 1, t + len - 1);

    TimePoint kt = t + 2;
    for (int k = 0; k < 4 && kt + 6 < t + len - 2; ++k) {
      const auto launch_end = kt + 1 + static_cast<TimePoint>(rng.below(3));
      if (rng.below(2) == 0) {
        add(kKernelLevel, kt, launch_end);
      } else {
        const std::uint64_t correlation = next_correlation++;
        Span& launch = add(kKernelLevel, kt, launch_end);
        launch.kind = SpanKind::kLaunch;
        launch.correlation_id = correlation;
        if (rng.below(8) != 0) {
          const auto exec_begin = launch_end + static_cast<TimePoint>(rng.below(20));
          const auto exec_end = exec_begin + 1 + static_cast<TimePoint>(rng.below(
                                                     static_cast<std::uint64_t>(len)));
          Span& exec = add(kKernelLevel, exec_begin, exec_end);
          exec.kind = SpanKind::kExecution;
          exec.correlation_id = correlation;
          last_end = std::max(last_end, exec_end);
        }
      }
      kt = launch_end + 1;
    }
    last_end = std::max(last_end, t + len);
    // The next layer may start before this one ends.
    t += len / 2 + static_cast<TimePoint>(rng.below(static_cast<std::uint64_t>(len)));
  }
  add(kModelLevel, 0, last_end + 5);

  // Publication order is arbitrary.
  for (std::size_t i = spans.size(); i > 1; --i) std::swap(spans[i - 1], spans[rng.below(i)]);
  return spans;
}

/// What assembly should produce for one node, computed the slow way.
struct ExpectedNode {
  SpanId parent = kNoSpan;
  bool ambiguous = false;
};

struct ExpectedTimeline {
  std::map<SpanId, ExpectedNode> nodes;
  std::size_t correlated = 0;
  std::size_t unmatched = 0;
  std::size_t ambiguous = 0;
};

/// Brute-force oracle for traces with async pairs and parallel siblings
/// (correlation ids unique per pair): merge each launch/exec pair, then for
/// every node take the smallest enclosing span on the nearest populated
/// level above, searching with the launch window for merged pairs. Equal
/// smallest candidates make the parent ambiguous and name the earliest by
/// (begin, id).
ExpectedTimeline oracle_timeline(const std::vector<Span>& spans) {
  struct Logical {
    const Span* span;
    TimePoint search_lo;
    TimePoint search_hi;
  };
  ExpectedTimeline out;
  std::vector<Logical> logical;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kRegular) {
      logical.push_back({&s, s.begin, s.end});
      continue;
    }
    const auto partner = std::find_if(spans.begin(), spans.end(), [&](const Span& o) {
      return o.correlation_id == s.correlation_id && o.kind != s.kind;
    });
    if (partner == spans.end()) {
      logical.push_back({&s, s.begin, s.end});
      ++out.unmatched;
    } else if (s.kind == SpanKind::kExecution) {
      logical.push_back({&s, partner->begin, partner->end});
      ++out.correlated;
    }
  }

  std::map<int, int> level_counts;
  for (const auto& n : logical) level_counts[n.span->level] += 1;
  for (const auto& child : logical) {
    int parent_level = child.span->level - 1;
    while (parent_level >= kApplicationLevel && level_counts[parent_level] == 0) --parent_level;
    const Span* best = nullptr;
    std::size_t ties = 0;
    for (const auto& cand : logical) {
      const Span& c = *cand.span;
      if (c.level != parent_level || c.begin > child.search_lo || c.end < child.search_hi) {
        continue;
      }
      if (best == nullptr || c.duration() < best->duration()) {
        best = &c;
        ties = 1;
      } else if (c.duration() == best->duration()) {
        ++ties;
        if (std::pair(c.begin, c.id) < std::pair(best->begin, best->id)) best = &c;
      }
    }
    ExpectedNode& e = out.nodes[child.span->id];
    e.parent = best == nullptr ? kNoSpan : best->id;
    e.ambiguous = ties > 1;
    if (e.ambiguous) ++out.ambiguous;
  }
  return out;
}

class TimelineRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineRandomized, MatchesBruteForceOracle) {
  const auto spans = random_nested_trace(GetParam(), 20, 4);
  const auto expected = oracle_parents(spans);
  const auto tl = Timeline::assemble(spans);
  ASSERT_EQ(tl.size(), spans.size());
  for (const auto& s : spans) {
    EXPECT_EQ(tl.node(s.id).parent, expected.at(s.id)) << s.name;
  }
  EXPECT_EQ(tl.ambiguous_count(), 0u);
}

TEST_P(TimelineRandomized, EveryNodeReachableExactlyOnceFromRoots) {
  const auto spans = random_nested_trace(GetParam(), 15, 3);
  const auto tl = Timeline::assemble(spans);
  std::map<SpanId, int> visits;
  tl.walk([&](const TimelineNode& n, int) { visits[n.span.id] += 1; });
  EXPECT_EQ(visits.size(), spans.size());
  for (const auto& [id, count] : visits) {
    EXPECT_EQ(count, 1) << "span " << id;
  }
}

TEST_P(TimelineRandomized, ChildrenIntervalsWithinParent) {
  const auto spans = random_nested_trace(GetParam(), 15, 3);
  const auto tl = Timeline::assemble(spans);
  tl.walk([&](const TimelineNode& n, int) {
    for (const SpanId c : n.children) {
      const auto& child = tl.node(c).span;
      EXPECT_GE(child.begin, n.span.begin);
      EXPECT_LE(child.end, n.span.end);
    }
  });
}

TEST_P(TimelineRandomized, ChildrenSortedByBeginTime) {
  const auto spans = random_nested_trace(GetParam(), 15, 3);
  const auto tl = Timeline::assemble(spans);
  tl.walk([&](const TimelineNode& n, int) {
    for (std::size_t i = 1; i < n.children.size(); ++i) {
      EXPECT_LE(tl.node(n.children[i - 1]).span.begin, tl.node(n.children[i]).span.begin);
    }
  });
}

TEST_P(TimelineRandomized, ShuffledPublicationOrderIsIrrelevant) {
  auto spans = random_nested_trace(GetParam(), 12, 3);
  const auto reference = Timeline::assemble(spans);
  SplitMix64 rng(GetParam() ^ 0xABCDEF);
  for (std::size_t i = spans.size(); i > 1; --i) {
    std::swap(spans[i - 1], spans[rng.below(i)]);
  }
  const auto shuffled = Timeline::assemble(spans);
  ASSERT_EQ(shuffled.size(), reference.size());
  reference.walk([&](const TimelineNode& n, int) {
    EXPECT_EQ(shuffled.node(n.span.id).parent, n.parent) << n.span.name;
  });
}

TEST_P(TimelineRandomized, ParallelAsyncTraceMatchesBruteForceOracle) {
  const auto spans = random_parallel_trace(GetParam(), 30);
  const auto expected = oracle_timeline(spans);
  const auto tl = Timeline::assemble(spans);

  // Conservation: every input span is a node or folded into its partner.
  EXPECT_EQ(spans.size(), tl.size() + tl.correlated_async_count());
  EXPECT_EQ(tl.size(), expected.nodes.size());
  EXPECT_EQ(tl.correlated_async_count(), expected.correlated);
  EXPECT_EQ(tl.unmatched_async_count(), expected.unmatched);
  EXPECT_EQ(tl.ambiguous_count(), expected.ambiguous);
  for (const auto& [id, want] : expected.nodes) {
    ASSERT_TRUE(tl.contains(id)) << "span " << id;
    EXPECT_EQ(tl.node(id).parent, want.parent) << "span " << id;
    EXPECT_EQ(tl.node(id).ambiguous_parent, want.ambiguous) << "span " << id;
  }
}

TEST(TimelineParallelTrace, GeneratorCoversTheHardCases) {
  // Over the suite's seeds the generator must produce ties, both library
  // presence and absence, and executions that outlive their layer.
  std::size_t ambiguous = 0, with_library = 0, without_library = 0, outliving = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u}) {
    const auto spans = random_parallel_trace(seed, 30);
    const auto tl = Timeline::assemble(spans);
    ambiguous += tl.ambiguous_count();
    const bool library = std::any_of(spans.begin(), spans.end(),
                                      [](const Span& s) { return s.level == kLibraryLevel; });
    (library ? with_library : without_library) += 1;
    tl.walk([&](const TimelineNode& n, int) {
      if (n.is_async && n.parent != kNoSpan && tl.node(n.parent).span.end < n.span.end) ++outliving;
    });
  }
  EXPECT_GT(ambiguous, 0u);
  EXPECT_GT(with_library, 0u);
  EXPECT_GT(without_library, 0u);
  EXPECT_GT(outliving, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineRandomized,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

}  // namespace
}  // namespace xsp::trace
