// Implicit augmented interval tree used to reconstruct span parent-child
// links.
//
// "XSP's profile analysis builds an interval tree and populates it with
//  intervals corresponding to the spans' start/end timestamps. Using the
//  interval tree, XSP reconstructs the parent-child relationship by checking
//  for interval set inclusion."                          — paper, Section III-A
//
// The tree is built once from a fixed set of intervals (the spans of one
// level of one trace) and then queried many times, so it needs no pointers:
// the entries sit in one array sorted by `lo`, and that array *is* the tree
// (the layout of H. Li's cgranges). Position i lies at level k, where k is
// the number of trailing 1 bits of i; a level-k node's children are i ∓ 2^(k-1)
// and its subtree spans [i - 2^k + 1, i + 2^k - 1]. A parallel `max_hi_`
// array holds the largest `hi` in each subtree, which prunes queries.
//
// - Build: O(n) when the entries arrive sorted by `lo` (the timeline's
//   per-level entries do, since nodes are begin-ordered), an `is_sorted`
//   check plus one bottom-up pass; O(n log n) otherwise.
// - Query: O(log n + k) for k hits, visiting hits in array order (ascending
//   `lo`, input order among equal `lo`). The walk keeps an explicit stack of
//   at most one frame per level above the scanned subtrees plus one, so the
//   fixed 64-frame stack bounds any `size_t`-indexed tree.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "xsp/common/time.hpp"

namespace xsp::trace {

/// Static interval tree over closed intervals [lo, hi] with a payload.
template <typename T>
class IntervalTree {
 public:
  struct Entry {
    TimePoint lo = 0;
    TimePoint hi = 0;
    T value{};
  };

  IntervalTree() = default;

  explicit IntervalTree(std::vector<Entry> entries) : entries_(std::move(entries)) {
    const auto by_lo = [](const Entry& a, const Entry& b) { return a.lo < b.lo; };
    if (!std::is_sorted(entries_.begin(), entries_.end(), by_lo)) {
      std::stable_sort(entries_.begin(), entries_.end(), by_lo);
    }
    build();
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Invoke `fn(const Entry&)` for every interval containing point `p`.
  template <typename Fn>
  void visit_stabbing(TimePoint p, Fn&& fn) const {
    visit_where(p, p, fn);
  }

  /// All entries whose interval fully contains [lo, hi].
  [[nodiscard]] std::vector<const Entry*> containing(TimePoint lo, TimePoint hi) const {
    return collect(lo, hi);
  }

  /// All entries overlapping [lo, hi] (closed-interval overlap).
  [[nodiscard]] std::vector<const Entry*> overlapping(TimePoint lo, TimePoint hi) const {
    return collect(hi, lo);
  }

 private:
  /// Subtrees at or below this level are scanned linearly: cheaper than
  /// walking their 2^(k+1) - 1 nodes one stack frame at a time.
  static constexpr int kScanLevel = 3;

  static constexpr std::size_t bit(int k) { return std::size_t{1} << k; }

  /// Bottom-up `max_hi_` fill. A node whose right child lies past the end
  /// takes that side's maximum from `last`, the max over the in-range tail.
  void build() {
    const std::size_t n = entries_.size();
    max_hi_.resize(n);
    if (n == 0) return;
    std::size_t last_i = 0;  // the rightmost node of the current level
    TimePoint last = 0;      // max_hi_ of last_i's subtree
    for (std::size_t i = 0; i < n; i += 2) {
      last_i = i;
      last = max_hi_[i] = entries_[i].hi;
    }
    int k = 1;
    for (; bit(k) <= n; ++k) {
      const std::size_t x = bit(k - 1);
      for (std::size_t i = bit(k) - 1; i < n; i += bit(k + 1)) {
        const TimePoint right = i + x < n ? max_hi_[i + x] : last;
        max_hi_[i] = std::max({entries_[i].hi, max_hi_[i - x], right});
      }
      last_i = (last_i >> k & 1) != 0 ? last_i - x : last_i + x;
      if (last_i < n && max_hi_[last_i] > last) last = max_hi_[last_i];
    }
    root_level_ = k - 1;
  }

  /// In-order walk over every entry with e.lo <= lo_max && e.hi >= hi_min:
  /// a stab at p is (p, p), containment of [lo, hi] is (lo, hi), and
  /// overlap with [lo, hi] is (hi, lo).
  template <typename Fn>
  void visit_where(TimePoint lo_max, TimePoint hi_min, Fn& fn) const {
    struct Frame {
      int level;
      std::size_t i;
      bool left_done;
    };
    const std::size_t n = entries_.size();
    if (n == 0) return;
    std::array<Frame, 64> stack;
    int top = 0;
    stack[top++] = {root_level_, bit(root_level_) - 1, false};
    while (top > 0) {
      const Frame f = stack[--top];
      if (f.level <= kScanLevel) {
        const std::size_t first = f.i >> f.level << f.level;
        const std::size_t end = std::min(first + bit(f.level + 1) - 1, n);
        for (std::size_t i = first; i < end && entries_[i].lo <= lo_max; ++i) {
          if (entries_[i].hi >= hi_min) fn(entries_[i]);
        }
      } else if (!f.left_done) {
        // Revisit this node after its left subtree; descend left only if
        // that subtree can reach hi_min (a child past the end has no max).
        stack[top++] = {f.level, f.i, true};
        const std::size_t left = f.i - bit(f.level - 1);
        if (left >= n || max_hi_[left] >= hi_min) stack[top++] = {f.level - 1, left, false};
      } else if (f.i < n && entries_[f.i].lo <= lo_max) {
        if (entries_[f.i].hi >= hi_min) fn(entries_[f.i]);
        stack[top++] = {f.level - 1, f.i + bit(f.level - 1), false};
      }
    }
  }

  std::vector<const Entry*> collect(TimePoint lo_max, TimePoint hi_min) const {
    std::vector<const Entry*> out;
    auto push = [&](const Entry& e) { out.push_back(&e); };
    visit_where(lo_max, hi_min, push);
    return out;
  }

  std::vector<Entry> entries_;     ///< sorted by lo; position i is tree node i
  std::vector<TimePoint> max_hi_;  ///< max hi over node i's subtree
  int root_level_ = 0;
};

}  // namespace xsp::trace
