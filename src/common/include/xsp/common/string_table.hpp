// StringTable / StrId: process-wide string interning for the span hot path.
//
// Every profiled event at every stack level becomes a span (paper,
// Section III-A), so at production trace rates the measurement layer's own
// allocation behaviour dominates: two heap strings plus two node-based maps
// per span is what the pre-refactor profile showed. Spans therefore carry
// 32-bit interned ids; the bytes live once, in a sharded global table.
//
// Properties:
//   * interning is thread-safe (sharded; shared-lock fast path on hit),
//   * ids are stable for the process lifetime — resolution never dangles,
//   * equal strings always intern to the equal id, so span-keyed
//     aggregations compare and hash ids instead of bytes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace xsp::common {

class StringTable {
 public:
  // Id layout: (slot << kShardBits) | shard. Shard choice follows the
  // string hash so unrelated producers rarely contend on one shard lock.
  // Ids are dense per shard, so a bitmap over raw ids (the binary wire
  // writer's sent-string set) stays about as small as the table.
  static constexpr std::uint32_t kShardBits = 4;
  static constexpr std::uint32_t kShardCount = 1u << kShardBits;

  /// Hard per-shard slot ceiling: one more slot and `slot << kShardBits`
  /// would wrap the 32-bit id space and hand out colliding StrIds.
  static constexpr std::uint32_t kMaxSlotsPerShard = 1u << (32 - kShardBits);

  /// The string the reserved over-budget sentinel id resolves to.
  static constexpr std::string_view kSentinel = "<interned-cap>";

  /// The process-wide table all StrIds resolve against.
  static StringTable& global();

  StringTable();
  StringTable(const StringTable&) = delete;
  StringTable& operator=(const StringTable&) = delete;

  /// Intern `s`, returning its stable id. The empty string is always id 0.
  /// Bounded: once the configured byte budget (set_budget_bytes) is
  /// reached — or a shard runs out of id space — new strings are NOT
  /// interned; the call returns sentinel_id() and bumps
  /// rejected_interns() instead of growing. Already-interned strings
  /// keep resolving to their real ids regardless of the budget.
  std::uint32_t intern(std::string_view s);

  /// Cap the table at roughly `budget` bytes as measured by
  /// approx_bytes(); 0 (the default) means unbounded. Lowering the
  /// budget below current usage rejects all further inserts but never
  /// evicts — ids stay stable for the process lifetime. May be changed
  /// at any time from any thread.
  void set_budget_bytes(std::size_t budget) noexcept {
    budget_bytes_.store(budget, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return budget_bytes_.load(std::memory_order_relaxed);
  }

  /// Lifetime count of intern() calls rejected by the budget or the
  /// per-shard slot ceiling. Monotonic; each rejected call counts once
  /// (rejections are never cached, so repeated calls keep counting).
  [[nodiscard]] std::uint64_t rejected_interns() const noexcept {
    return rejected_interns_.load(std::memory_order_relaxed);
  }

  /// The id every rejected intern() resolves to; interned at
  /// construction (before any budget applies), so it is always a real,
  /// stable entry that resolves to kSentinel.
  [[nodiscard]] std::uint32_t sentinel_id() const noexcept { return sentinel_id_; }

  /// Test seam: lower the per-shard slot ceiling so the id-space
  /// overflow guard is exercisable without interning 2^28 strings.
  /// Production code must never call this.
  void set_slot_limit_for_testing(std::uint32_t limit) noexcept {
    slot_limit_.store(limit, std::memory_order_relaxed);
  }

  /// Resolve an id. Valid for the lifetime of the table (the global table
  /// never evicts, so resolved references are stable).
  [[nodiscard]] const std::string& str(std::uint32_t id) const;
  [[nodiscard]] std::string_view view(std::uint32_t id) const { return str(id); }

  /// Number of distinct strings interned so far.
  [[nodiscard]] std::size_t size() const;

  /// Approximate resident bytes of the table: interned character data
  /// plus a fixed per-entry estimate for the std::string header and the
  /// index slot. O(shard count) — per-shard byte totals are maintained at
  /// insert — so it is cheap enough to sample every snapshot. The table
  /// never evicts, so this only grows: it is the telemetry a long-running
  /// multi-model service watches to see interned-annotation growth
  /// (dynamically composed tag values: grid/block dims, shapes). Under a
  /// byte budget (set_budget_bytes) it plateaus at the budget instead.
  [[nodiscard]] std::size_t approx_bytes() const;

  /// Per-entry overhead charged by approx_bytes() on top of character
  /// data: the deque's std::string header plus one index entry
  /// (string_view key + id + bucket link).
  static constexpr std::size_t kApproxEntryOverhead =
      sizeof(std::string) + sizeof(std::string_view) + sizeof(std::uint32_t) * 2 +
      sizeof(void*);

 private:
  /// Process-unique table generation: guards per-thread intern caches
  /// against a destroyed table whose address was reused.
  std::uint64_t uid_;

  struct Shard {
    mutable std::shared_mutex mu;
    // Views key into `strings`, whose elements have stable addresses.
    std::unordered_map<std::string_view, std::uint32_t> index;
    std::deque<std::string> strings;
    /// Character bytes interned into this shard (for approx_bytes()).
    std::size_t bytes = 0;
  };

  std::array<Shard, kShardCount> shards_;

  /// Sum of (char bytes + kApproxEntryOverhead) across all non-reserved
  /// entries — kept equal to approx_bytes() so the budget check is one
  /// relaxed load instead of a 16-shard lock walk (which would also
  /// invert lock order against a concurrent insert on another shard).
  std::atomic<std::size_t> total_bytes_{0};
  std::atomic<std::size_t> budget_bytes_{0};
  std::atomic<std::uint64_t> rejected_interns_{0};
  std::atomic<std::uint32_t> slot_limit_{kMaxSlotsPerShard};
  std::uint32_t sentinel_id_ = 0;
};

/// Interned string id. Implicitly constructible from any string-ish value
/// (which interns into the global table), so call sites read like plain
/// string assignment while storage stays a 32-bit handle.
class StrId {
 public:
  constexpr StrId() noexcept = default;
  StrId(std::string_view s) : id_(StringTable::global().intern(s)) {}  // NOLINT(google-explicit-constructor)
  StrId(const char* s) : StrId(std::string_view(s)) {}                 // NOLINT(google-explicit-constructor)
  StrId(const std::string& s) : StrId(std::string_view(s)) {}          // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::uint32_t raw() const noexcept { return id_; }
  [[nodiscard]] bool empty() const noexcept { return id_ == 0; }

  /// Rebuild a StrId from a raw table id without interning — the binary
  /// wire decoder's path after it re-interned a string delta. The caller
  /// owns validity: resolving an id the table never handed out throws
  /// std::out_of_range (never UB).
  [[nodiscard]] static StrId from_raw(std::uint32_t id) noexcept {
    StrId s;
    s.id_ = id;
    return s;
  }

  [[nodiscard]] const std::string& str() const { return StringTable::global().str(id_); }
  [[nodiscard]] std::string_view view() const { return str(); }
  [[nodiscard]] const char* c_str() const { return str().c_str(); }

  friend bool operator==(StrId a, StrId b) noexcept { return a.id_ == b.id_; }
  friend bool operator!=(StrId a, StrId b) noexcept { return a.id_ != b.id_; }
  // Exact-match text comparisons (avoid ambiguity with the implicit
  // interning constructor; comparing does not intern).
  friend bool operator==(StrId a, std::string_view b) { return a.view() == b; }
  friend bool operator==(std::string_view a, StrId b) { return a == b.view(); }
  friend bool operator==(StrId a, const char* b) { return a.view() == b; }
  friend bool operator==(const char* a, StrId b) { return b.view() == a; }
  friend bool operator==(StrId a, const std::string& b) { return a.view() == b; }
  friend bool operator==(const std::string& a, StrId b) { return b.view() == a; }
  /// Lexicographic, for deterministic presentation-order sorts.
  friend bool operator<(StrId a, StrId b) { return a.id_ != b.id_ && a.view() < b.view(); }

  friend std::ostream& operator<<(std::ostream& os, StrId id) { return os << id.view(); }

 private:
  std::uint32_t id_ = 0;
};

struct StrIdHash {
  std::size_t operator()(StrId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.raw());
  }
};

}  // namespace xsp::common
