#include "xsp/common/string_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "xsp/common/flat_map.hpp"

namespace xsp::common {
namespace {

TEST(StringTable, EmptyStringIsAlwaysIdZero) {
  EXPECT_EQ(StringTable::global().intern(""), 0u);
  StrId id;
  EXPECT_TRUE(id.empty());
  EXPECT_EQ(id.view(), "");
}

TEST(StringTable, EqualStringsInternToEqualIds) {
  const StrId a("conv2d/Conv2D");
  const StrId b(std::string("conv2d/Conv2D"));
  const StrId c("conv2d/Relu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, b);
}

TEST(StringTable, GrowthTelemetryTracksSizeAndBytes) {
  // A private table so the global's contents cannot perturb the counts.
  StringTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.approx_bytes(), 0u);

  table.intern("conv2d/Conv2D");
  const std::size_t after_one = table.approx_bytes();
  // One entry: its character data plus the documented per-entry overhead.
  EXPECT_EQ(after_one, std::string("conv2d/Conv2D").size() + StringTable::kApproxEntryOverhead);
  EXPECT_EQ(table.size(), 1u);

  // Re-interning the same string grows nothing (the whole point of the
  // telemetry: distinct-string growth, not intern-call volume).
  table.intern("conv2d/Conv2D");
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.approx_bytes(), after_one);

  // Dynamically composed values (the ROADMAP growth concern) do grow it,
  // monotonically.
  std::size_t previous = after_one;
  for (int i = 0; i < 100; ++i) {
    table.intern("grid=[" + std::to_string(i) + ",1,1]");
    const std::size_t now = table.approx_bytes();
    EXPECT_GT(now, previous);
    previous = now;
  }
  EXPECT_EQ(table.size(), 101u);
}

TEST(StringTable, ResolutionRoundTrips) {
  const StrId id("volta_scudnn_128x64_relu_interior_nn_v1");
  EXPECT_EQ(id.str(), "volta_scudnn_128x64_relu_interior_nn_v1");
  EXPECT_EQ(id.view(), "volta_scudnn_128x64_relu_interior_nn_v1");
  EXPECT_STREQ(id.c_str(), "volta_scudnn_128x64_relu_interior_nn_v1");
}

TEST(StringTable, ComparesAgainstTextWithoutInterning) {
  const StrId id("layer_type");
  EXPECT_EQ(id, "layer_type");
  EXPECT_EQ(id, std::string("layer_type"));
  EXPECT_FALSE(id == "layer_typo");
}

TEST(StringTable, LexicographicOrderForPresentationSorts) {
  EXPECT_LT(StrId("Add"), StrId("Conv2D"));
  EXPECT_FALSE(StrId("Conv2D") < StrId("Conv2D"));
}

TEST(StringTable, ConcurrentInterningIsConsistent) {
  // Many threads intern the same names; every thread must observe the same
  // id per name, and resolution must never dangle.
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  std::vector<std::vector<std::uint32_t>> per_thread(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&per_thread, t] {
      for (int i = 0; i < kNames; ++i) {
        const StrId id("concurrent_intern_test_name_" + std::to_string(i));
        per_thread[static_cast<std::size_t>(t)].push_back(id.raw());
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[static_cast<std::size_t>(t)], per_thread[0]);
  }
}

TEST(FlatMap, SetFindAtCount) {
  FlatMap<double, 4> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.set("flop_count_sp", 1e9));
  EXPECT_TRUE(m.set("achieved_occupancy", 0.5));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.count("flop_count_sp"), 1u);
  EXPECT_EQ(m.count("missing"), 0u);
  EXPECT_DOUBLE_EQ(m.at("achieved_occupancy"), 0.5);
  EXPECT_THROW((void)m.at("missing"), std::out_of_range);
}

TEST(FlatMap, SetOverwritesExistingKey) {
  FlatMap<double, 2> m;
  EXPECT_TRUE(m.set("k", 1.0));
  EXPECT_TRUE(m.set("k", 2.0));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.at("k"), 2.0);
}

TEST(FlatMap, DropsBeyondCapacityAndReportsIt) {
  FlatMap<double, 2> m;
  EXPECT_TRUE(m.set("a", 1));
  EXPECT_TRUE(m.set("b", 2));
  EXPECT_FALSE(m.set("c", 3));  // full: dropped
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.count("c"), 0u);
  // Overwriting an existing key still works at capacity.
  EXPECT_TRUE(m.set("a", 9));
  EXPECT_DOUBLE_EQ(m.at("a"), 9);
}

TEST(FlatMap, IterationPreservesInsertionOrder) {
  FlatMap<StrId, 4> m;
  m.set("grid", "[4,1,1]");
  m.set("block", "[256,1,1]");
  std::vector<std::string> keys;
  for (const auto& e : m) keys.push_back(e.key.str());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "grid");
  EXPECT_EQ(keys[1], "block");
}

}  // namespace
}  // namespace xsp::common
