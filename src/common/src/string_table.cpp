#include "xsp/common/string_table.hpp"

#include <atomic>
#include <cstring>
#include <mutex>

namespace xsp::common {

StringTable& StringTable::global() {
  static StringTable table;
  return table;
}

namespace {

std::uint64_t next_table_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

StringTable::StringTable() : uid_(next_table_uid()) {
  // Reserve id 0 for the empty string: shard 0, slot 0.
  auto& shard = shards_[0];
  shard.strings.emplace_back();
  shard.index.emplace(std::string_view(shard.strings.back()), 0u);
  // Reserve the over-budget sentinel up front, before any budget can
  // apply: a rejected intern must always have a real, stable id to
  // return. Inserted directly (not via intern()) so that, like the
  // empty string, it is excluded from the size()/approx_bytes()
  // telemetry — but unlike id 0 it is a string a wire stream sends like
  // any other once a span uses it, so cross-process decoders resolve it.
  const std::size_t hash = std::hash<std::string_view>{}(kSentinel);
  const auto sentinel_shard_idx = static_cast<std::uint32_t>(hash & (kShardCount - 1));
  auto& sentinel_shard = shards_[sentinel_shard_idx];
  const auto slot = static_cast<std::uint32_t>(sentinel_shard.strings.size());
  sentinel_shard.strings.emplace_back(kSentinel);
  sentinel_id_ = (slot << kShardBits) | sentinel_shard_idx;
  sentinel_shard.index.emplace(std::string_view(sentinel_shard.strings.back()), sentinel_id_);
}

namespace {

/// Per-thread direct-mapped intern cache. Producers intern the same few
/// names over and over (kernel names, tag keys); a hit answers from TLS
/// with zero atomics, which also keeps concurrent publishers from
/// ping-ponging the shard lock cache line. Entries reference the table's
/// stable canonical storage, so hits never dangle.
struct InternCacheLine {
  const void* table;
  std::uint64_t table_uid;  ///< address reuse guard
  std::size_t hash;
  const char* data;
  std::uint32_t size;
  std::uint32_t id;
};

constexpr std::size_t kInternCacheSize = 256;  // power of two

}  // namespace

std::uint32_t StringTable::intern(std::string_view s) {
  if (s.empty()) return 0;
  const std::size_t hash = std::hash<std::string_view>{}(s);

  thread_local InternCacheLine cache[kInternCacheSize] = {};
  InternCacheLine& line = cache[hash & (kInternCacheSize - 1)];
  if (line.table == this && line.table_uid == uid_ && line.hash == hash &&
      line.size == s.size() && std::memcmp(line.data, s.data(), s.size()) == 0) {
    return line.id;
  }

  const auto shard_idx = static_cast<std::uint32_t>(hash & (kShardCount - 1));
  Shard& shard = shards_[shard_idx];
  std::string_view canonical;
  std::uint32_t id = 0;
  {
    std::shared_lock lk(shard.mu);
    if (auto it = shard.index.find(s); it != shard.index.end()) {
      canonical = it->first;
      id = it->second;
    }
  }
  if (canonical.data() == nullptr) {
    std::unique_lock lk(shard.mu);
    if (auto it = shard.index.find(s); it != shard.index.end()) {
      canonical = it->first;
      id = it->second;
    } else {
      const auto slot = static_cast<std::uint32_t>(shard.strings.size());
      // Id-space guard: at slot_limit_ the shifted slot would wrap into
      // another shard's id range and collide. Saturate to the sentinel.
      if (slot >= slot_limit_.load(std::memory_order_relaxed)) {
        rejected_interns_.fetch_add(1, std::memory_order_relaxed);
        return sentinel_id_;
      }
      // Budget guard: charge first, back out on overshoot so two
      // racing inserts can't both squeeze under the line. Shard byte
      // totals (what approx_bytes() reports) only grow on a real
      // insert, so steady-state approx_bytes() never exceeds a budget
      // that was in force when the table crossed it.
      const std::size_t cost = s.size() + kApproxEntryOverhead;
      const std::size_t budget = budget_bytes_.load(std::memory_order_relaxed);
      const std::size_t prev = total_bytes_.fetch_add(cost, std::memory_order_relaxed);
      if (budget != 0 && prev + cost > budget) {
        total_bytes_.fetch_sub(cost, std::memory_order_relaxed);
        rejected_interns_.fetch_add(1, std::memory_order_relaxed);
        // Deliberately NOT cached: a later budget raise must let this
        // exact string intern for real, and rejected_interns stays an
        // exact per-call count.
        return sentinel_id_;
      }
      shard.strings.emplace_back(s);
      shard.bytes += s.size();
      id = (slot << kShardBits) | shard_idx;
      canonical = std::string_view(shard.strings.back());
      shard.index.emplace(canonical, id);
    }
  }
  line = {this, uid_, hash, canonical.data(), static_cast<std::uint32_t>(canonical.size()), id};
  return id;
}

const std::string& StringTable::str(std::uint32_t id) const {
  const Shard& shard = shards_[id & (kShardCount - 1)];
  std::shared_lock lk(shard.mu);
  return shard.strings.at(id >> kShardBits);
}

std::size_t StringTable::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lk(shard.mu);
    total += shard.strings.size();
  }
  // Subtract the reserved entries (empty string + sentinel).
  return total - 2;
}

std::size_t StringTable::approx_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lk(shard.mu);
    total += shard.bytes + shard.strings.size() * kApproxEntryOverhead;
  }
  // Exclude the reserved entries (empty string + sentinel), mirroring
  // size(); the sentinel's character bytes were never added to
  // shard.bytes, so entry overheads are the whole correction.
  return total - 2 * kApproxEntryOverhead;
}

}  // namespace xsp::common
