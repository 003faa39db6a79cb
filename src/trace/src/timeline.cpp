#include "xsp/trace/timeline.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "xsp/trace/interval_tree.hpp"

namespace xsp::trace {

namespace {

/// An async span awaiting its partner: its correlation id, then its place
/// in publication order.
struct CorrelationKey {
  std::uint64_t correlation_id;
  std::size_t position;
  const Span* span;

  bool operator<(const CorrelationKey& o) const {
    return correlation_id != o.correlation_id ? correlation_id < o.correlation_id
                                              : position < o.position;
  }
};

/// One future node: the span it copies and, for a correlated pair, the
/// launch span whose window and annotations it folds in.
struct OrderKey {
  TimePoint begin;
  SpanId id;
  const Span* span;
  const Span* launch;
};

OrderKey order_key(const Span& s, const Span* launch = nullptr) {
  return {s.begin, s.id, &s, launch};
}

/// Merge a matched launch span into the node built from its execution span.
void fold_launch(TimelineNode& n, const Span& launch) {
  // The launch span carries the explicit parent (if any) and the CPU
  // window used for interval-containment parent search.
  if (n.span.parent == kNoSpan) n.span.parent = launch.parent;
  n.launch_begin = launch.begin;
  n.launch_end = launch.end;
  n.is_async = true;
  // Preserve launch-side annotations that the execution side lacks.
  const auto keep = [&n](auto& map, const auto& key, const auto& value) {
    if (map.count(key) == 0 && !map.set(key, value)) n.span.note_dropped();
  };
  for (const auto& e : launch.tags) keep(n.span.tags, e.key, e.value);
  for (const auto& e : launch.metrics) keep(n.span.metrics, e.key, e.value);
  for (const auto& e : launch.inline_tags) keep(n.span.inline_tags, e.key, e.value());
  n.span.note_dropped(launch.dropped_annotations);
}

}  // namespace

Timeline Timeline::assemble(const SpanBatches& batches, const AssembleOptions& options) {
  Timeline tl;

  std::size_t span_count = 0;
  for (const auto& batch : batches) span_count += batch.size();

  // --- Step 1: correlate launch/execution pairs. -------------------------
  // Both key arrays are sorted by (id, publication position) and
  // merge-joined. The first launch and the first execution of an id become
  // one node: the execution's timing and metrics plus the launch window.
  // Every other async span (no partner, or a repeated id) stays a regular
  // node, counted as unmatched.
  std::vector<CorrelationKey> launches;
  std::vector<CorrelationKey> execs;
  std::vector<OrderKey> order;
  order.reserve(span_count);
  std::size_t position = 0;
  for (const auto& batch : batches) {
    for (const auto& s : batch) {
      const bool async = options.correlate_async && s.correlation_id != 0;
      if (async && s.kind == SpanKind::kLaunch) {
        launches.push_back({s.correlation_id, position++, &s});
      } else if (async && s.kind == SpanKind::kExecution) {
        execs.push_back({s.correlation_id, position++, &s});
      } else {
        order.push_back(order_key(s));
      }
    }
  }
  std::sort(launches.begin(), launches.end());
  std::sort(execs.begin(), execs.end());
  for (std::size_t l = 0, x = 0; l < launches.size() || x < execs.size();) {
    // The smallest id still unread on either side, and its run on each.
    std::uint64_t id = ~std::uint64_t{0};
    if (l < launches.size()) id = launches[l].correlation_id;
    if (x < execs.size()) id = std::min(id, execs[x].correlation_id);
    std::size_t l_end = l;
    std::size_t x_end = x;
    while (l_end < launches.size() && launches[l_end].correlation_id == id) ++l_end;
    while (x_end < execs.size() && execs[x_end].correlation_id == id) ++x_end;
    if (l < l_end && x < x_end) {
      order.push_back(order_key(*execs[x++].span, launches[l++].span));
      ++tl.correlated_async_;
    }
    for (; l < l_end; ++l, ++tl.unmatched_async_) order.push_back(order_key(*launches[l].span));
    for (; x < x_end; ++x, ++tl.unmatched_async_) order.push_back(order_key(*execs[x].span));
  }

  // --- Step 2: order, then copy each span once. ---------------------------
  // By begin time, then id: deterministic whatever the publication order.
  std::sort(order.begin(), order.end(), [](const OrderKey& a, const OrderKey& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.id < b.id;
  });
  tl.nodes_.reserve(order.size());
  for (const auto& k : order) {
    TimelineNode& n = tl.nodes_.emplace_back(*k.span);
    if (k.launch != nullptr) fold_launch(n, *k.launch);
  }

  // --- Step 3: index the nodes by id, and per level by interval. ---------
  // (A loop of its own keeps the id index's hash nodes back to back.)
  tl.index_.reserve(tl.nodes_.size());
  for (std::uint32_t i = 0; i < tl.nodes_.size(); ++i) tl.index_.emplace(tl.nodes_[i].span.id, i);
  using Tree = IntervalTree<std::uint32_t>;
  std::map<int, std::vector<Tree::Entry>> level_entries;
  for (std::uint32_t i = 0; i < tl.nodes_.size(); ++i) {
    const Span& s = tl.nodes_[i].span;
    level_entries[s.level].push_back({s.begin, s.end, i});
  }
  std::map<int, Tree> level_trees;
  for (auto& [level, entries] : level_entries) {
    level_trees.emplace(level, Tree(std::move(entries)));
  }

  // --- Step 4: resolve parents and materialize the hierarchy. -------------
  // Nodes are in begin-time order, so walking them in order keeps children
  // lists and roots deterministic.
  for (auto& n : tl.nodes_) {
    TimelineNode* parent = nullptr;
    if (options.trust_explicit_parents && n.span.parent != kNoSpan) {
      if (auto it = tl.index_.find(n.span.parent); it != tl.index_.end()) {
        parent = &tl.nodes_[it->second];
      }
    } else {
      // The parent lives on the nearest populated level above; levels with
      // no tracer attached are skipped (e.g. kernels parent directly onto
      // layers when no ML-library tracer ran — Section III-E extensibility).
      auto tree_it = level_trees.lower_bound(n.span.level);
      if (tree_it != level_trees.begin() && std::prev(tree_it)->first >= kApplicationLevel) {
        // Async events search with their CPU-side launch window: the launch
        // call happens inside the parent layer's interval even when the
        // device-side execution outlives the layer (Section III-B).
        const TimePoint lo = n.is_async ? n.launch_begin : n.span.begin;
        const TimePoint hi = n.is_async ? n.launch_end : n.span.end;
        // Smallest enclosing interval is the immediate parent; a tie
        // between distinct enclosing intervals means parallel events. The
        // visit runs in node order, so a tie names the earliest candidate.
        const Tree::Entry* best = nullptr;
        std::size_t equal_best = 0;
        std::prev(tree_it)->second.visit_stabbing(lo, [&](const Tree::Entry& e) {
          if (e.hi < hi) return;  // must contain [lo, hi]
          if (best == nullptr || e.hi - e.lo < best->hi - best->lo) {
            best = &e;
            equal_best = 1;
          } else if (e.hi - e.lo == best->hi - best->lo) {
            ++equal_best;
          }
        });
        if (best != nullptr) {
          parent = &tl.nodes_[best->value];
          n.ambiguous_parent = equal_best > 1;
          if (n.ambiguous_parent) ++tl.ambiguous_;
        }
      }
    }
    if (parent == nullptr) {
      tl.roots_.push_back(n.span.id);
    } else {
      n.parent = parent->span.id;
      parent->children.push_back(n.span.id);
    }
  }
  return tl;
}

std::vector<SpanId> Timeline::at_level(int level) const {
  // nodes_ is ordered by (begin, id) already.
  std::vector<SpanId> out;
  for (const auto& n : nodes_) {
    if (n.span.level == level) out.push_back(n.span.id);
  }
  return out;
}

std::optional<SpanId> Timeline::find_by_name(StrId name) const {
  for (const auto& n : nodes_) {
    if (n.span.name == name) return n.span.id;
  }
  return std::nullopt;
}

void Timeline::walk(const std::function<void(const TimelineNode&, int depth)>& fn) const {
  for (SpanId root : roots_) walk_from(root, 0, fn);
}

void Timeline::walk_from(SpanId id, int depth,
                         const std::function<void(const TimelineNode&, int depth)>& fn) const {
  const auto& n = node(id);
  fn(n, depth);
  for (SpanId c : n.children) walk_from(c, depth + 1, fn);
}

}  // namespace xsp::trace
