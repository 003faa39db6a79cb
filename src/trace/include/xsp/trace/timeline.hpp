// Timeline: the assembled hierarchical trace of one evaluation.
//
// Assembly performs the two correlation steps of the paper's design:
//   1. join kLaunch/kExecution span pairs by correlation_id into one
//      logical async event (timing/metrics from the execution span, parent
//      derived from the launch span — Section III-B), and
//   2. reconstruct missing parent references by interval set inclusion via
//      an interval tree (Section III-A): span s1 is the parent of s2 iff
//      s1's interval contains s2's and s1 is exactly one level higher.
//
// When several candidate parents contain a span (parallel events), the
// parent is ambiguous; XSP then "requires another profiling run where the
// parallel events are serialized" — assembly records the ambiguity count so
// the caller knows a serialized re-run is needed.
//
// Storage: nodes live in one flat vector ordered by (begin, id), with a
// side index from span id to vector position. Assembly never moves a span:
// it sorts small keys instead ({correlation id, position} keys merge-joined
// to pair launches with executions, then {begin, id} keys for node order)
// and copies each span once, into its final slot. The per-level interval
// trees are flat arrays over the begin-ordered nodes, built in one pass and
// queried with allocation-free stabbing visits: O(n log n) key sorting plus
// O(n) copies. A parent tie names the earliest candidate by (begin, id).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "xsp/trace/span.hpp"

namespace xsp::trace {

/// One node in the assembled hierarchy.
struct TimelineNode {
  Span span;  ///< merged view; for async events: execution timing + metrics
  SpanId parent = kNoSpan;
  std::vector<SpanId> children;  ///< ordered by begin time
  /// For async events: the CPU-side launch window (begin/end of the launch
  /// span). Zero-width for regular spans.
  TimePoint launch_begin = 0;
  TimePoint launch_end = 0;
  bool is_async = false;
  bool ambiguous_parent = false;
};

struct AssembleOptions {
  /// Parent search uses the launch span's interval for async events (the
  /// launch happens inside the parent's CPU interval, while the execution
  /// may complete after the parent returned).
  bool correlate_async = true;
  /// When true, spans with an explicit parent reference keep it even if
  /// interval containment would disagree.
  bool trust_explicit_parents = true;
};

class Timeline {
 public:
  /// Assemble a hierarchy from the raw spans of one run, in the publication
  /// batches TraceServer::take_batches() hands off. Spans are copied out
  /// (they are trivially copyable), so the caller keeps the batch buffers
  /// and can hand them back via TraceServer::recycle().
  static Timeline assemble(const SpanBatches& batches, const AssembleOptions& options = {});

  /// Convenience overload for a flat span vector (wrapped as one batch).
  static Timeline assemble(std::vector<Span> spans, const AssembleOptions& options = {}) {
    SpanBatches batches;
    batches.push_back(std::move(spans));
    return assemble(std::move(batches), options);
  }

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Spans with no parent (normally the single model-prediction span plus
  /// any uncorrelated stragglers), ordered by begin time.
  [[nodiscard]] const std::vector<SpanId>& roots() const noexcept { return roots_; }

  /// Node lookup; throws std::out_of_range on an unknown id.
  [[nodiscard]] const TimelineNode& node(SpanId id) const { return nodes_[index_.at(id)]; }
  [[nodiscard]] bool contains(SpanId id) const { return index_.count(id) != 0; }

  /// All node ids at a stack level, ordered by begin time.
  [[nodiscard]] std::vector<SpanId> at_level(int level) const;

  /// Children of `id` ordered by begin time (empty for a leaf).
  [[nodiscard]] const std::vector<SpanId>& children(SpanId id) const {
    return node(id).children;
  }

  /// First node (in begin-time order) whose span name equals `name`.
  [[nodiscard]] std::optional<SpanId> find_by_name(StrId name) const;

  /// Depth-first pre-order walk over the whole hierarchy.
  void walk(const std::function<void(const TimelineNode&, int depth)>& fn) const;

  /// Number of spans whose parent could not be determined unambiguously.
  /// Non-zero means a serialized re-run is required for exact correlation.
  [[nodiscard]] std::size_t ambiguous_count() const noexcept { return ambiguous_; }

  /// Number of launch/execution pairs that were merged during assembly.
  [[nodiscard]] std::size_t correlated_async_count() const noexcept { return correlated_async_; }

  /// Launch spans with no matching execution span (or vice versa) are kept
  /// as regular nodes; this counts them. Only the first launch and the
  /// first execution of a correlation id pair up, so the spans of a
  /// repeated id (runs whose device restarted its ids) count here too.
  /// Every input span is a node or folded into one:
  /// spans in == size() + correlated_async_count().
  [[nodiscard]] std::size_t unmatched_async_count() const noexcept { return unmatched_async_; }

 private:
  void walk_from(SpanId id, int depth,
                 const std::function<void(const TimelineNode&, int depth)>& fn) const;

  /// Ordered by (span.begin, span.id); `index_` maps span id -> position.
  std::vector<TimelineNode> nodes_;
  std::unordered_map<SpanId, std::uint32_t> index_;
  std::vector<SpanId> roots_;
  std::size_t ambiguous_ = 0;
  std::size_t correlated_async_ = 0;
  std::size_t unmatched_async_ = 0;
};

}  // namespace xsp::trace
