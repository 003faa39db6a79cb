// Span: the unit of profile data in XSP's distributed-tracing design.
//
// "In distributed tracing terminology, a timed operation representing a
//  piece of work is referred to as a span. Each span contains a unique
//  identifier (used as its reference), start/end timestamps, and
//  user-defined annotations such as name, key-value tags, and logs. A span
//  may also contain a parent reference to establish a parent-child
//  relationship."                                      — paper, Section III-A
//
// Representation: every profiled event at every stack level becomes a span
// (Section III-A), so span construction and publication are the profiling
// system's own hot path. Names, tracer ids, tag keys/values are interned
// 32-bit StrIds and annotations live in flat inline-capacity storage —
// building and publishing a typical span performs no heap allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xsp/common/flat_map.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/common/time.hpp"

namespace xsp::trace {

/// Unique span identifier. 0 is reserved for "no span".
using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

/// Interned string handle used for span names, tracer ids, and annotation
/// keys/values (resolves against common::StringTable::global()).
using common::StrId;

/// Stack levels, numbered as in the paper ("level 1 is the model level").
/// The scheme is open-ended: Section III-E's extensions are first-class —
/// an application level above the model level (level 0) and an ML-library
/// level between layer and kernel (level 3, capturing cuDNN/cuBLAS API
/// calls) — which is why the level is a plain integer rather than a closed
/// enum. Absent levels are skipped during parent reconstruction (a kernel
/// parents to its layer directly when no library tracer ran).
constexpr int kApplicationLevel = 0;
constexpr int kModelLevel = 1;
constexpr int kLayerLevel = 2;
constexpr int kLibraryLevel = 3;
constexpr int kKernelLevel = 4;

/// Returns a human-readable name for a stack level.
const char* level_name(int level);

/// Asynchronous operations are represented by two spans joined by a
/// correlation identifier: the CPU-side launch and the device-side
/// execution (paper, Section III-A/B).
enum class SpanKind : std::uint8_t {
  kRegular,    ///< ordinary synchronous timed operation
  kLaunch,     ///< asynchronous launch (e.g. cudaLaunchKernel on the CPU)
  kExecution,  ///< the corresponding future execution (e.g. the GPU kernel)
};

const char* kind_name(SpanKind k);

/// Free-form string annotations (layer type, kernel grid, ...), interned.
/// Capacities bound the span size; see FlatMap for the overflow contract.
using TagMap = common::FlatMap<StrId, 6>;
/// Numeric annotations (GPU counters, allocated bytes, ...).
using MetricMap = common::FlatMap<double, 6>;

/// Inline value tags: the value bytes live IN the span, not in the
/// process-wide StringTable. This is the annotation channel for
/// high-cardinality values (grid/block dims, per-request ids) — every
/// distinct interned value costs table memory for the process lifetime,
/// while an inline value costs nothing beyond the span it rides in.
/// Keys are still interned StrIds (keys are low-cardinality by design).
///
/// Fixed capacity keeps Span trivially copyable: kCapacity entries of
/// kValueCapacity bytes each. set() truncates overlong values to
/// kValueCapacity bytes and returns false only when the map is full,
/// mirroring FlatMap's overflow contract.
class InlineTagMap {
 public:
  static constexpr std::uint32_t kCapacity = 2;
  static constexpr std::uint32_t kValueCapacity = 27;

  /// One key + inline value payload; 32 bytes, trivially copyable.
  struct Entry {
    StrId key;
    std::uint8_t size = 0;
    char data[kValueCapacity];
    [[nodiscard]] std::string_view value() const noexcept { return {data, size}; }
  };

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return kCapacity; }

  [[nodiscard]] const Entry* begin() const noexcept { return entries_; }
  [[nodiscard]] const Entry* end() const noexcept { return entries_ + count_; }

  /// Insert or overwrite; truncates `value` to kValueCapacity bytes.
  /// Returns false (dropping the entry) only when full and `key` absent.
  bool set(StrId key, std::string_view value) noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (entries_[i].key == key) {
        store(entries_[i], value);
        return true;
      }
    }
    if (count_ == kCapacity) return false;
    entries_[count_].key = key;
    store(entries_[count_], value);
    ++count_;
    return true;
  }

  /// Value lookup; `fallback` when absent.
  [[nodiscard]] std::string_view value_or(StrId key,
                                          std::string_view fallback = {}) const noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (entries_[i].key == key) return entries_[i].value();
    }
    return fallback;
  }

  [[nodiscard]] std::size_t count(StrId key) const noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (entries_[i].key == key) return 1;
    }
    return 0;
  }

  void clear() noexcept { count_ = 0; }

  /// True when count and every entry's size are within capacity. An
  /// InlineTagMap memcpy'd from an untrusted byte stream
  /// (trace::BinaryReader) must pass this before iteration — value()
  /// trusts size.
  [[nodiscard]] bool valid() const noexcept {
    if (count_ > kCapacity) return false;
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (entries_[i].size > kValueCapacity) return false;
    }
    return true;
  }

  /// Rewrite every key in place: key_i = fn(key_i). The wire decoder's
  /// re-interning hook; values are inline bytes and pass through
  /// untouched (nothing to re-intern — that is the point).
  template <typename Fn>
  void remap_keys(Fn&& fn) {
    for (std::uint32_t i = 0; i < count_; ++i) entries_[i].key = fn(entries_[i].key);
  }

 private:
  static void store(Entry& e, std::string_view value) noexcept {
    const std::size_t n =
        value.size() < kValueCapacity ? value.size() : std::size_t{kValueCapacity};
    e.size = static_cast<std::uint8_t>(n);
    if (n != 0) std::memcpy(e.data, value.data(), n);
  }

  Entry entries_[kCapacity] = {};
  std::uint32_t count_ = 0;
};

/// A single profiled event converted into distributed-tracing form.
struct Span {
  SpanId id = kNoSpan;
  /// Explicit parent reference, when the publishing tracer knows it (e.g.
  /// layer spans are created as children of the model-prediction span).
  /// kNoSpan means "to be reconstructed from interval containment".
  SpanId parent = kNoSpan;
  int level = kModelLevel;
  SpanKind kind = SpanKind::kRegular;
  StrId name;
  /// Name of the tracer that published this span (one per profiler).
  StrId tracer;
  TimePoint begin = 0;
  TimePoint end = 0;
  /// Joins kLaunch/kExecution pairs; 0 when not applicable.
  std::uint64_t correlation_id = 0;
  TagMap tags;
  MetricMap metrics;
  /// Annotations rejected because tags/metrics/inline_tags hit capacity.
  /// Non-zero means the trace lost fidelity for this span; exporters
  /// surface it. Saturates at 0xFFFF (see note_dropped) — "at least
  /// 65535 drops" must never wrap back to "clean".
  std::uint16_t dropped_annotations = 0;
  /// Non-interned value tags.
  InlineTagMap inline_tags;

  [[nodiscard]] Ns duration() const noexcept { return end - begin; }

  /// Record `n` annotation drops, saturating at 0xFFFF.
  void note_dropped(std::uint32_t n = 1) noexcept {
    const std::uint32_t total = dropped_annotations + n;
    dropped_annotations = total > 0xFFFF ? std::uint16_t{0xFFFF} : static_cast<std::uint16_t>(total);
  }

  /// Tag lookup; the empty StrId when absent.
  [[nodiscard]] StrId tag_or(StrId key, StrId fallback = {}) const noexcept {
    const StrId* v = tags.find(key);
    return v ? *v : fallback;
  }

  /// Metric lookup with fallback.
  [[nodiscard]] double metric_or(StrId key, double fallback) const noexcept {
    const double* v = metrics.find(key);
    return v ? *v : fallback;
  }
};

// The publish pipeline hands spans around in whole batches; triviality is
// what makes a batch hand-off a pointer swap and a flatten a memcpy.
static_assert(std::is_trivially_copyable_v<Span>);

/// One producer batch of spans, and a trace as the list of batches it was
/// published in. The server aggregates and hands off batch handles; spans
/// are laid out once, by Timeline::assemble or an exporter.
using SpanBatch = std::vector<Span>;
using SpanBatches = std::vector<SpanBatch>;

/// Flatten publication batches into one contiguous span vector. Spans are
/// trivially copyable, so each batch append lowers to one memcpy; the
/// batches are left intact for the caller to recycle.
inline std::vector<Span> flatten_batches(const SpanBatches& batches) {
  std::size_t total = 0;
  for (const auto& batch : batches) total += batch.size();
  std::vector<Span> flat;
  flat.reserve(total);
  for (const auto& batch : batches) flat.insert(flat.end(), batch.begin(), batch.end());
  return flat;
}

inline const char* level_name(int level) {
  switch (level) {
    case kApplicationLevel: return "application";
    case kModelLevel: return "model";
    case kLayerLevel: return "layer";
    case kLibraryLevel: return "library";
    case kKernelLevel: return "gpu_kernel";
    default: return "custom";
  }
}

inline const char* kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRegular: return "regular";
    case SpanKind::kLaunch: return "launch";
    case SpanKind::kExecution: return "execution";
  }
  return "?";
}

}  // namespace xsp::trace
