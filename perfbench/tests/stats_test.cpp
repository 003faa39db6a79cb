// Tests of the benchmark's own measurement rules, on synthetic inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------ percentile rule ----

TEST(PercentileRule, TenSamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(has_tail(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(has_tail(999, 0.99));
  EXPECT_TRUE(has_tail(200, 0.95));
  EXPECT_FALSE(has_tail(199, 0.95));
  EXPECT_FALSE(has_tail(0, 0.5));
}

TEST(PercentileRule, HighestSupportedPercentile) {
  EXPECT_EQ(highest_supported_percentile(10'000), 0.999);
  EXPECT_EQ(highest_supported_percentile(9'999), 0.99);
  EXPECT_EQ(highest_supported_percentile(1'000), 0.99);
  EXPECT_EQ(highest_supported_percentile(999), 0.95);
  EXPECT_EQ(highest_supported_percentile(100), 0.90);
  EXPECT_EQ(highest_supported_percentile(20), 0.50);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

// ------------------------------------------------------------ open loop ----

TEST(OpenLoop, LatenessIsMeasuredFromTheDueTime) {
  // 1000 items/s; the first burst stalls for 5 ms. The items that fell due
  // during the stall are sent late, and their lateness counts from when
  // they were due, not from when the stalled generator sent them.
  std::int64_t clock = 0;
  const Schedule sched{0, 1000};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bursts;
  const auto lateness = run_open_loop(
      sched, 10'000'000, 1'000'000, [&] { return clock; },
      [&](std::int64_t ns) { clock += ns; },
      [&](std::uint64_t first, std::uint64_t last) {
        bursts.emplace_back(first, last);
        if (first == 0) clock += 5'000'000;
      });
  ASSERT_GE(bursts.size(), 2u);
  EXPECT_EQ(bursts[0], std::make_pair(std::uint64_t{0}, std::uint64_t{1}));
  // Woken at 6 ms: items 1..6 were due at 1..6 ms.
  EXPECT_EQ(bursts[1], std::make_pair(std::uint64_t{1}, std::uint64_t{7}));
  ASSERT_EQ(lateness.size(), 10u);
  EXPECT_EQ(lateness[0], 0);
  EXPECT_EQ(lateness[1], 5'000'000);  // due at 1 ms, sent at 6 ms
  EXPECT_EQ(lateness[6], 0);          // due at 6 ms, sent at 6 ms
  EXPECT_EQ(lateness[7], 0);          // back on schedule
}

TEST(OpenLoop, ScheduleDoesNotSlipAfterAStall) {
  const Schedule sched{1'000, 100};
  EXPECT_EQ(sched.due(0), 1'000);
  EXPECT_EQ(sched.due(3), 1'000 + 30'000'000);
  EXPECT_EQ(sched.due_count(999), 0u);
  EXPECT_EQ(sched.due_count(1'000), 1u);
  EXPECT_EQ(sched.due_count(1'000 + 30'000'000), 4u);
}

// ------------------------------------------------------------ self time ----

BenchSpan span(std::uint64_t id, std::uint64_t parent, const char* name, std::int64_t b,
               std::int64_t e) {
  BenchSpan s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.begin = b;
  s.end = e;
  return s;
}

TEST(SelfTime, NestedChildrenAreSubtracted) {
  // job [0,100) > build [10,30) > inner [15,20); job > profile [40,90)
  const auto t = reduce_self_time({span(1, 0, "job", 0, 100), span(2, 1, "build", 10, 30),
                                   span(3, 2, "inner", 15, 20), span(4, 1, "profile", 40, 90)});
  EXPECT_EQ(t.at("job").self_ns, 30);
  EXPECT_EQ(t.at("build").self_ns, 15);
  EXPECT_EQ(t.at("inner").self_ns, 5);
  EXPECT_EQ(t.at("profile").self_ns, 50);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two concurrent children [10,60) and [40,80) cover [10,80) = 70.
  const auto t = reduce_self_time(
      {span(1, 0, "p", 0, 100), span(2, 1, "c", 10, 60), span(3, 1, "c", 40, 80)});
  EXPECT_EQ(t.at("p").self_ns, 30);
  EXPECT_EQ(t.at("c").self_ns, 90);
  EXPECT_EQ(t.at("c").count, 2u);
}

TEST(SelfTime, ChildOutsideItsParentIsClipped) {
  // A child draining after its parent ended covers only [90,100).
  const auto t = reduce_self_time({span(1, 0, "p", 0, 100), span(2, 1, "c", 90, 150)});
  EXPECT_EQ(t.at("p").self_ns, 90);
}

TEST(SelfTime, NamesSumOverSpans) {
  auto a = span(1, 0, "publish", 0, 10);
  a.items = 64;
  auto b = span(2, 0, "publish", 20, 26);
  b.items = 32;
  const auto t = reduce_self_time({a, b});
  EXPECT_EQ(t.at("publish").self_ns, 16);
  EXPECT_EQ(t.at("publish").items, 96u);
}

}  // namespace
}  // namespace perfbench
