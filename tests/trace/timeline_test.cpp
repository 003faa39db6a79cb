#include "xsp/trace/timeline.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace xsp::trace {
namespace {

Span make(SpanId id, int level, TimePoint b, TimePoint e, std::string name,
          SpanId parent = kNoSpan) {
  Span s;
  s.id = id;
  s.level = level;
  s.begin = b;
  s.end = e;
  s.name = std::move(name);
  s.parent = parent;
  return s;
}

// model [0,1000] > layer1 [10,400] > k1 [20,100], k2 [150,300];
//                  layer2 [420,900] > k3 [500,600]
std::vector<Span> nested_trace() {
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 10, 400, "conv0"));
  spans.push_back(make(3, kLayerLevel, 420, 900, "relu0"));
  spans.push_back(make(4, kKernelLevel, 20, 100, "k1"));
  spans.push_back(make(5, kKernelLevel, 150, 300, "k2"));
  spans.push_back(make(6, kKernelLevel, 500, 600, "k3"));
  return spans;
}

TEST(Timeline, ReconstructsNestedHierarchyByIntervals) {
  auto tl = Timeline::assemble(nested_trace());
  ASSERT_EQ(tl.roots().size(), 1u);
  const SpanId root = tl.roots()[0];
  EXPECT_EQ(tl.node(root).span.name, "Predict");
  ASSERT_EQ(tl.children(root).size(), 2u);
  EXPECT_EQ(tl.node(tl.children(root)[0]).span.name, "conv0");
  EXPECT_EQ(tl.node(tl.children(root)[1]).span.name, "relu0");

  const SpanId conv0 = tl.children(root)[0];
  ASSERT_EQ(tl.children(conv0).size(), 2u);
  EXPECT_EQ(tl.node(tl.children(conv0)[0]).span.name, "k1");
  EXPECT_EQ(tl.node(tl.children(conv0)[1]).span.name, "k2");

  const SpanId relu0 = tl.children(root)[1];
  ASSERT_EQ(tl.children(relu0).size(), 1u);
  EXPECT_EQ(tl.node(tl.children(relu0)[0]).span.name, "k3");
  EXPECT_EQ(tl.ambiguous_count(), 0u);
}

TEST(Timeline, ExplicitParentOverridesIntervals) {
  auto spans = nested_trace();
  // Attach k3 explicitly to conv0 even though its interval sits in relu0.
  spans[5].parent = 2;
  auto tl = Timeline::assemble(spans);
  const auto& k3 = tl.node(6);
  EXPECT_EQ(k3.parent, 2u);
}

TEST(Timeline, ExplicitParentsCanBeDistrusted) {
  auto spans = nested_trace();
  spans[5].parent = 2;
  AssembleOptions opts;
  opts.trust_explicit_parents = false;
  auto tl = Timeline::assemble(spans, opts);
  EXPECT_EQ(tl.node(6).parent, 3u);  // back to interval containment
}

TEST(Timeline, AbsentLevelsAreSkippedInParentSearch) {
  // A kernel-level span with no layer or library profiling enabled:
  // those level trees are empty, so the parent search falls through to the
  // model span (Section III-E: tracers can be enabled per level, and the
  // hierarchy must still assemble).
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 100, "Predict"));
  spans.push_back(make(2, kKernelLevel, 10, 20, "k"));
  auto tl = Timeline::assemble(spans);
  ASSERT_EQ(tl.roots().size(), 1u);
  EXPECT_EQ(tl.node(2).parent, 1u);
}

TEST(Timeline, LibraryLevelNestsBetweenLayerAndKernel) {
  // With an ML-library tracer attached, kernels parent onto the library
  // call span and the library span onto the layer.
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 10, 400, "conv0"));
  spans.push_back(make(3, kLibraryLevel, 20, 120, "cudnnConvolutionForward"));
  spans.push_back(make(4, kKernelLevel, 30, 100, "volta_scudnn"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(4).parent, 3u);
  EXPECT_EQ(tl.node(3).parent, 2u);
  EXPECT_EQ(tl.node(2).parent, 1u);
}

TEST(Timeline, KernelOutsideLibraryWindowFallsToNoParent) {
  // A kernel whose interval is not contained by any library span stays
  // unparented rather than mis-attaching (the level exists, so no
  // fall-through happens).
  std::vector<Span> spans;
  spans.push_back(make(1, kLibraryLevel, 0, 50, "cublasSgemm"));
  spans.push_back(make(2, kKernelLevel, 60, 80, "stray"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(2).parent, kNoSpan);
}

TEST(Timeline, CorrelatesLaunchAndExecutionSpans) {
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 10, 100, "conv0"));

  // Launch inside the layer; execution completes after the layer ended.
  Span launch = make(3, kKernelLevel, 20, 25, "k_launch");
  launch.kind = SpanKind::kLaunch;
  launch.correlation_id = 42;
  Span exec = make(4, kKernelLevel, 120, 200, "volta_scudnn");
  exec.kind = SpanKind::kExecution;
  exec.correlation_id = 42;
  exec.metrics.set("flop_count_sp", 5e9);
  spans.push_back(launch);
  spans.push_back(exec);

  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.correlated_async_count(), 1u);
  EXPECT_EQ(tl.unmatched_async_count(), 0u);

  // The merged kernel node: parent via launch interval, timing from exec.
  const auto kid = tl.find_by_name("volta_scudnn");
  ASSERT_TRUE(kid.has_value());
  const auto& node = tl.node(*kid);
  EXPECT_TRUE(node.is_async);
  EXPECT_EQ(node.parent, 2u);
  EXPECT_EQ(node.span.begin, 120);
  EXPECT_EQ(node.span.end, 200);
  EXPECT_EQ(node.launch_begin, 20);
  EXPECT_EQ(node.launch_end, 25);
  EXPECT_DOUBLE_EQ(node.span.metrics.at("flop_count_sp"), 5e9);
}

TEST(Timeline, UnmatchedAsyncSpansDegradeGracefully) {
  std::vector<Span> spans;
  Span launch = make(1, kKernelLevel, 0, 5, "k_launch");
  launch.kind = SpanKind::kLaunch;
  launch.correlation_id = 7;
  spans.push_back(launch);
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.unmatched_async_count(), 1u);
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, RepeatedCorrelationIdsKeepEverySpan) {
  // Two runs assembled together after the device restarted its correlation
  // ids: both launch/exec pairs carry id 9. The first launch and the first
  // execution pair up; the second pair cannot be told apart from a
  // cross-run match, so both of its spans stay as unmatched nodes.
  std::vector<Span> spans;
  Span launch_a = make(1, kKernelLevel, 0, 5, "launch_a");
  launch_a.kind = SpanKind::kLaunch;
  launch_a.correlation_id = 9;
  Span exec_a = make(2, kKernelLevel, 10, 20, "exec_a");
  exec_a.kind = SpanKind::kExecution;
  exec_a.correlation_id = 9;
  Span launch_b = make(3, kKernelLevel, 100, 105, "launch_b");
  launch_b.kind = SpanKind::kLaunch;
  launch_b.correlation_id = 9;
  Span exec_b = make(4, kKernelLevel, 110, 120, "exec_b");
  exec_b.kind = SpanKind::kExecution;
  exec_b.correlation_id = 9;
  spans.push_back(launch_a);
  spans.push_back(exec_a);
  spans.push_back(launch_b);
  spans.push_back(exec_b);

  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl.correlated_async_count(), 1u);
  EXPECT_EQ(tl.unmatched_async_count(), 2u);
  EXPECT_EQ(tl.size() + tl.correlated_async_count(), spans.size());
  ASSERT_TRUE(tl.contains(2));
  EXPECT_TRUE(tl.node(2).is_async);
  EXPECT_EQ(tl.node(2).launch_begin, 0);
  EXPECT_FALSE(tl.contains(1));  // folded into exec_a
  ASSERT_TRUE(tl.contains(3));
  ASSERT_TRUE(tl.contains(4));
  EXPECT_FALSE(tl.node(3).is_async);
  EXPECT_FALSE(tl.node(4).is_async);
}

TEST(Timeline, AmbiguousParentDetectedForParallelEvents) {
  // Two identical overlapping layer spans both contain the kernel: parallel
  // execution makes the parent ambiguous, requiring a serialized re-run.
  std::vector<Span> spans;
  spans.push_back(make(1, kLayerLevel, 0, 100, "branch_a"));
  spans.push_back(make(2, kLayerLevel, 0, 100, "branch_b"));
  spans.push_back(make(3, kKernelLevel, 10, 20, "k"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.ambiguous_count(), 1u);
}

TEST(Timeline, SmallestEnclosingIntervalWins) {
  // Nested same-level spans: the tighter one is the parent.
  std::vector<Span> spans;
  spans.push_back(make(1, kLayerLevel, 0, 1000, "outer"));
  spans.push_back(make(2, kLayerLevel, 100, 300, "inner"));
  spans.push_back(make(3, kKernelLevel, 150, 200, "k"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(3).parent, 2u);
  EXPECT_EQ(tl.ambiguous_count(), 0u);
}

TEST(Timeline, AtLevelReturnsSpansInTimeOrder) {
  auto tl = Timeline::assemble(nested_trace());
  const auto kernels = tl.at_level(kKernelLevel);
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(tl.node(kernels[0]).span.name, "k1");
  EXPECT_EQ(tl.node(kernels[1]).span.name, "k2");
  EXPECT_EQ(tl.node(kernels[2]).span.name, "k3");
}

TEST(Timeline, WalkVisitsEveryNodeWithDepths) {
  auto tl = Timeline::assemble(nested_trace());
  int count = 0;
  int max_depth = 0;
  tl.walk([&](const TimelineNode&, int depth) {
    ++count;
    max_depth = std::max(max_depth, depth);
  });
  EXPECT_EQ(count, 6);
  EXPECT_EQ(max_depth, 2);
}

TEST(Timeline, EmptyTraceYieldsEmptyTimeline) {
  auto tl = Timeline::assemble(std::vector<Span>{});
  EXPECT_TRUE(tl.empty());
  EXPECT_TRUE(tl.roots().empty());
}

TEST(Timeline, FindByNamePicksEarliest) {
  std::vector<Span> spans;
  spans.push_back(make(1, kLayerLevel, 100, 200, "conv"));
  spans.push_back(make(2, kLayerLevel, 0, 50, "conv"));
  auto tl = Timeline::assemble(spans);
  const auto found = tl.find_by_name("conv");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2u);
}

TEST(Timeline, DeterministicRegardlessOfPublicationOrder) {
  auto spans = nested_trace();
  std::vector<Span> reversed(spans.rbegin(), spans.rend());
  auto a = Timeline::assemble(spans);
  auto b = Timeline::assemble(reversed);
  ASSERT_EQ(a.roots().size(), b.roots().size());
  const auto ka = a.at_level(kKernelLevel);
  const auto kb = b.at_level(kKernelLevel);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(a.node(ka[i]).span.name, b.node(kb[i]).span.name);
    EXPECT_EQ(a.node(ka[i]).parent, b.node(kb[i]).parent);
  }
}

}  // namespace
}  // namespace xsp::trace
