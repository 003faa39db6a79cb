// Bounded-interning semantics of StringTable: the byte budget, the
// reserved "<interned-cap>" sentinel, exact rejection accounting, the
// TLS intern-cache behaviour at the budget boundary, and the id-space
// slot-ceiling guard. All on private StringTable instances so the
// process-global table's state (and the tests that pin its telemetry)
// stays untouched. These suites run under the TSan and ASan CI matrices
// like the rest of tests/common.
#include "xsp/common/string_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace xsp::common {
namespace {

TEST(StringTableBudget, FreshTableHasResolvableSentinelOutsideTelemetry) {
  StringTable table;
  // The sentinel is reserved at construction but excluded from the growth
  // telemetry, exactly like the empty string: a fresh table reports
  // empty even though sentinel_id() already resolves.
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.approx_bytes(), 0u);
  EXPECT_NE(table.sentinel_id(), 0u);
  EXPECT_EQ(table.str(table.sentinel_id()), StringTable::kSentinel);
  EXPECT_EQ(table.rejected_interns(), 0u);
  EXPECT_EQ(table.budget_bytes(), 0u);
}

TEST(StringTableBudget, InterningTheSentinelTextYieldsTheSentinelId) {
  StringTable table;
  // Not a rejection — the hit path finds the reserved entry.
  EXPECT_EQ(table.intern(StringTable::kSentinel), table.sentinel_id());
  EXPECT_EQ(table.rejected_interns(), 0u);
}

TEST(StringTableBudget, RejectsPastBudgetAndPlateausUnderIt) {
  StringTable table;
  table.set_budget_bytes(1);  // below any entry's cost: everything rejects
  const std::uint32_t id = table.intern("over-budget");
  EXPECT_EQ(id, table.sentinel_id());
  EXPECT_EQ(table.str(id), StringTable::kSentinel);
  EXPECT_EQ(table.rejected_interns(), 1u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LE(table.approx_bytes(), 1u);
}

TEST(StringTableBudget, ExistingStringsResolvePastBudgetNewOnesReject) {
  StringTable table;
  const std::uint32_t hot = table.intern("hot-path-key");
  ASSERT_NE(hot, table.sentinel_id());
  table.set_budget_bytes(1);
  // Already-interned strings keep their real ids — only growth is capped.
  EXPECT_EQ(table.intern("hot-path-key"), hot);
  EXPECT_EQ(table.rejected_interns(), 0u);
  EXPECT_EQ(table.intern("brand-new"), table.sentinel_id());
  EXPECT_EQ(table.rejected_interns(), 1u);
}

TEST(StringTableBudget, RejectedInternsCountsEveryCallExactly) {
  StringTable table;
  table.set_budget_bytes(1);
  // Rejections must never be cached: each repeated call re-attempts the
  // intern and counts again, which is what makes the counter exact and
  // what lets a later budget raise actually admit the string.
  constexpr int kStrings = 7;
  constexpr int kRepeats = 5;
  for (int r = 0; r < kRepeats; ++r) {
    for (int s = 0; s < kStrings; ++s) {
      EXPECT_EQ(table.intern("rejected-" + std::to_string(s)), table.sentinel_id());
    }
  }
  EXPECT_EQ(table.rejected_interns(),
            static_cast<std::uint64_t>(kStrings) * kRepeats);
}

TEST(StringTableBudget, BudgetRaiseAdmitsPreviouslyRejectedStrings) {
  StringTable table;
  table.set_budget_bytes(1);
  EXPECT_EQ(table.intern("late-bloomer"), table.sentinel_id());
  table.set_budget_bytes(1 << 20);
  const std::uint32_t id = table.intern("late-bloomer");
  EXPECT_NE(id, table.sentinel_id());
  EXPECT_EQ(table.str(id), "late-bloomer");
  // And the admitted entry is cached/stable like any other.
  EXPECT_EQ(table.intern("late-bloomer"), id);
}

TEST(StringTableBudget, TlsCacheSurvivesBudgetBoundary) {
  StringTable table;
  // Interned before the budget: lands in this thread's TLS intern cache.
  const std::uint32_t cached = table.intern("cached-before-budget");
  table.set_budget_bytes(1);
  // The cache (and the shared-lock hit path behind it) must still resolve
  // to the real id — the budget gates growth, not resolution.
  EXPECT_EQ(table.intern("cached-before-budget"), cached);
  EXPECT_EQ(table.rejected_interns(), 0u);
  // A miss at the boundary rejects, and — because rejections are never
  // cached — the same bytes intern for real the moment the budget lifts.
  EXPECT_EQ(table.intern("missed-at-budget"), table.sentinel_id());
  table.set_budget_bytes(0);
  EXPECT_NE(table.intern("missed-at-budget"), table.sentinel_id());
}

TEST(StringTableBudget, SentinelStableAndAccountingExactAcrossThreads) {
  StringTable table;
  table.set_budget_bytes(1);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &mismatches, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint32_t id =
            table.intern("t" + std::to_string(t) + "-v" + std::to_string(i));
        if (id != table.sentinel_id()) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  EXPECT_EQ(table.rejected_interns(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(table.size(), 0u);
}

TEST(StringTableSlotGuard, SaturatesToSentinelAtSlotCeiling) {
  StringTable table;
  // A ceiling of 2 slots/shard stands in for the real 2^28 one: the guard
  // must hand back the sentinel instead of letting `slot << kShardBits`
  // wrap into an id already issued to another string.
  constexpr std::uint32_t kLimit = 2;
  table.set_slot_limit_for_testing(kLimit);
  std::set<std::uint32_t> real_ids;
  constexpr int kAttempts = 256;
  for (int i = 0; i < kAttempts; ++i) {
    const std::uint32_t id = table.intern("slot-guard-" + std::to_string(i));
    if (id == table.sentinel_id()) continue;
    // Every admitted id is unique (no wrap-around collisions) and decodes
    // to a slot under the ceiling.
    EXPECT_TRUE(real_ids.insert(id).second) << "colliding id " << id;
    EXPECT_LT(id >> StringTable::kShardBits, kLimit);
  }
  // The ceiling actually bit: far fewer than kAttempts slots exist.
  EXPECT_LE(real_ids.size(), static_cast<std::size_t>(kLimit) * StringTable::kShardCount);
  EXPECT_EQ(table.rejected_interns(),
            static_cast<std::uint64_t>(kAttempts) - real_ids.size());
  // Raising the ceiling back un-wedges future interns (saturation, not a
  // poisoned table).
  table.set_slot_limit_for_testing(StringTable::kMaxSlotsPerShard);
  EXPECT_NE(table.intern("after-the-ceiling"), table.sentinel_id());
}

}  // namespace
}  // namespace xsp::common
