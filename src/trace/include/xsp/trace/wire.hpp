// XSP binary span-batch wire format (v4, the only version) and the
// format-agnostic serialization core shared by every exporter backend.
//
// The JSON path (StreamingExporter) tops out around 2.8M spans/s because
// every span is re-formatted as text. Spans are trivially copyable fixed-size
// PODs whose strings are interned 32-bit StrIds, so the binary format moves
// whole sealed batches with memcpy and ships the bytes of each string a
// stream uses exactly once, as StringDelta frames — an order of magnitude more
// throughput through the same drain-subscriber seam, and the on-disk /
// on-socket format a cross-process collector daemon will speak (ROADMAP:
// cross-process trace ingestion).
//
// Layered as:
//   FrameSink      — bounded-buffer byte sink (ostream or callback), the
//                    seam both StreamingExporter and BinaryWriter drive.
//   wire::*        — the format itself: versioned stream header, then
//                    length-prefixed frames (StringDelta, SpanBatch,
//                    Footer), all little-into-host-endian POD structs.
//   BinaryWriter   — drain-subscriber-compatible encoder: per flush, a
//                    StringDelta frame carrying only the strings these
//                    spans use that this writer has not sent yet (a
//                    bitmap over raw StrIds), then one SpanBatch frame per
//                    sealed batch (payload is the batch memcpy'd whole).
//                    finish() appends a Footer frame with the collection
//                    telemetry (TraceMeta).
//   BinaryReader   — validating decoder: checks magic/version/endianness/
//                    span-size, bounds every length prefix, re-interns the
//                    deltas into this process's StringTable and rewrites
//                    each span's StrIds, and yields SpanBatches ready for
//                    Timeline::assemble or OnlineAnalyzer replay. Hostile
//                    input (truncation, oversized prefixes, unknown ids,
//                    out-of-bounds annotation counts) throws WireError —
//                    never UB.
//
// Format spec (layout, delta semantics, versioning rule):
// src/trace/README.md, "XSP binary wire format (v4)".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/trace/span.hpp"

namespace xsp::trace {

/// Collection-level telemetry to embed alongside the spans — the numbers
/// an operator needs to know whether a trace is complete without scanning
/// it. Defined here, in the format-agnostic serialization core, because
/// every backend ships it: the JSON exporter as its metadata footer, the
/// binary writer as the tail of its Footer frame (byte for byte, in this
/// field order). The single declaration of the counters: a new counter is
/// one member here plus one row in kTraceMetaFields below, and nothing
/// else changes but the code that produces its value.
struct TraceMeta {
  /// Annotations (tags/metrics) dropped to span capacity limits.
  std::uint64_t dropped_annotations = 0;
  /// Trace-server shards the spans were collected across.
  std::uint64_t shard_count = 1;
  /// Global StringTable growth at export time: distinct interned strings
  /// and their approximate resident bytes. The table never evicts, so a
  /// long-running service watches these for interned-annotation growth.
  std::uint64_t interned_strings = 0;
  std::uint64_t interned_bytes = 0;
  /// Producer-slot health at export time (TraceServer::live_slot_count()
  /// et al.): slots registered, slots retired by thread-exit reclamation
  /// over the fleet's lifetime, and approximate bytes resident in slots.
  /// live_slots tracking thread churn instead of live threads means
  /// reclamation is off or broken.
  std::uint64_t live_slots = 0;
  std::uint64_t retired_slots = 0;
  std::uint64_t slot_bytes = 0;
  /// Remote transport (trace::RemoteSink): spans the producer dropped to a
  /// full send buffer or a dying connection, and reconnects it performed.
  /// Non-zero remote_dropped_spans means the collector's copy is
  /// incomplete — by accounted backpressure, never silently.
  std::uint64_t remote_dropped_spans = 0;
  std::uint64_t remote_reconnects = 0;
  /// Sampling (trace::Sampler): spans the admission policy kept and shed.
  /// `published == sampled_kept + sampled_dropped` whenever a sampler was
  /// attached; both 0 when none was. Consumers rescale rate/count
  /// aggregates by the effective sampling fraction.
  std::uint64_t sampled_kept = 0;
  std::uint64_t sampled_dropped = 0;
  /// Bounded interning: the string table's byte budget (0 = unbounded)
  /// and the lifetime count of intern() calls rejected at the budget or
  /// the id-space cap. Non-zero rejected_interns means some annotation
  /// values in the trace read as the `<interned-cap>` sentinel.
  std::uint64_t strtab_budget_bytes = 0;
  std::uint64_t rejected_interns = 0;
};

/// One TraceMeta counter: its serialized name (the span-JSON metadata
/// key), the member, and a one-line description.
struct TraceMetaField {
  std::string_view name;
  std::uint64_t TraceMeta::*member;
  std::string_view help;
};

/// Every TraceMeta counter in declaration (and wire) order. Serializers
/// iterate this table instead of naming fields.
inline constexpr TraceMetaField kTraceMetaFields[] = {
    {"dropped_annotations", &TraceMeta::dropped_annotations,
     "Annotations dropped to span capacity limits"},
    {"shard_count", &TraceMeta::shard_count, "Trace-server shards collected across"},
    {"interned_strings", &TraceMeta::interned_strings, "Distinct strings in the global table"},
    {"interned_bytes", &TraceMeta::interned_bytes, "Approximate bytes in the global table"},
    {"live_slots", &TraceMeta::live_slots, "Producer slots currently registered"},
    {"retired_slots", &TraceMeta::retired_slots, "Producer slots retired by thread exit"},
    {"slot_bytes", &TraceMeta::slot_bytes, "Approximate bytes resident in producer slots"},
    {"remote_dropped_spans", &TraceMeta::remote_dropped_spans,
     "Spans a remote producer dropped before send"},
    {"remote_reconnects", &TraceMeta::remote_reconnects, "Reconnects a remote producer made"},
    {"sampled_kept", &TraceMeta::sampled_kept, "Spans the admission sampler kept"},
    {"sampled_dropped", &TraceMeta::sampled_dropped, "Spans the admission sampler shed"},
    {"strtab_budget_bytes", &TraceMeta::strtab_budget_bytes,
     "String-table byte budget (0 = unbounded)"},
    {"rejected_interns", &TraceMeta::rejected_interns,
     "Interns rejected at the string-table budget or id cap"},
};

/// True when every row of `fields` names a distinct member of `Record`, in
/// declaration order. Together with a row-count check (sizeof(Record) ==
/// rows * 8 for an all-u64 record) it is the compile-time guard each
/// telemetry table carries: a member without its row fails to build.
template <typename Record, typename Field, std::size_t N>
constexpr bool rows_follow_declaration_order(const Field (&fields)[N]) {
  Record record{};
  const std::uint64_t* prev = nullptr;
  for (const Field& f : fields) {
    const std::uint64_t* at = &(record.*f.member);
    if (prev != nullptr && !(prev < at)) return false;
    prev = at;
  }
  return true;
}

static_assert(sizeof(TraceMeta) == std::size(kTraceMetaFields) * sizeof(std::uint64_t),
              "every TraceMeta member needs a kTraceMetaFields row");
static_assert(rows_follow_declaration_order<TraceMeta>(kTraceMetaFields),
              "kTraceMetaFields rows must follow TraceMeta's declaration order");

/// Bounded-buffer byte sink: the serialization core's output seam. Bytes
/// append into a fixed-threshold internal buffer and are pushed to the
/// underlying ostream/callback whenever the threshold is reached — the
/// sink's footprint is independent of how many bytes stream through it.
/// Writes at or above the threshold bypass the buffer entirely (after a
/// flush, to preserve order), so a whole-batch memcpy payload is handed to
/// the sink zero-copy. Thread-safe; bytes of concurrent write() calls
/// never interleave.
///
/// Fallible sinks (sockets): construct with a TryWriteFn, which reports
/// how many bytes it accepted. A short count keeps the unaccepted suffix
/// buffered — in order, ahead of later writes — and retries it on the
/// next write()/flush(), so a saturated socket never tears a frame; a
/// kWriteError return latches failure (failed()), after which all bytes
/// are discarded and write()/flush() return false. Infallible WriteFn
/// sinks behave exactly as before (never short, never failed).
class FrameSink {
 public:
  using WriteFn = std::function<void(std::string_view)>;
  /// Fallible sink callback: returns bytes accepted (0..size — a short
  /// count is backpressure, the rest stays buffered for retry) or
  /// kWriteError for a hard, unrecoverable failure.
  using TryWriteFn = std::function<std::size_t(std::string_view)>;
  static constexpr std::size_t kWriteError = static_cast<std::size_t>(-1);
  /// Constructor tag selecting the TryWriteFn overload (a callable
  /// returning size_t is also invocable-as-void, so the overload must be
  /// explicit, not deduced).
  struct Fallible {};

  /// Buffered bytes at which the buffer is pushed to the sink. The buffer
  /// may transiently exceed this by one sub-threshold write.
  static constexpr std::size_t kFlushThreshold = 64 * 1024;

  explicit FrameSink(WriteFn fn);
  FrameSink(TryWriteFn fn, Fallible);
  /// The stream must outlive the sink.
  explicit FrameSink(std::ostream& os);

  FrameSink(const FrameSink&) = delete;
  FrameSink& operator=(const FrameSink&) = delete;

  /// Append bytes (buffered; auto-flush at the threshold). Returns false
  /// once the sink has failed — from this call or a previous one — at
  /// which point the bytes were discarded, not sent.
  bool write(std::string_view bytes);

  /// Push buffered bytes to the underlying sink. Returns true when the
  /// buffer fully drained; false when the sink is saturated (bytes remain
  /// pending, see pending_bytes()) or has failed.
  bool flush();

  /// Bytes accepted so far, including bytes still buffered — the
  /// export-cost telemetry exporters surface in their footers.
  [[nodiscard]] std::uint64_t bytes_written() const;

  /// True after the sink reported kWriteError; latched. Buffered bytes
  /// were discarded and later writes are dropped — the caller (e.g. a
  /// socket-backed exporter) decides whether to reconnect with a fresh
  /// sink or give up.
  [[nodiscard]] bool failed() const;

  /// Bytes a saturated sink has not accepted yet (0 for infallible
  /// sinks outside a write call). The number a bounded-send-buffer
  /// policy compares against its cap.
  [[nodiscard]] std::size_t pending_bytes() const;

 private:
  /// Drain buf_ into fn_; returns true when buf_ emptied. Caller holds mu_.
  bool drain_locked();

  TryWriteFn fn_;
  mutable std::mutex mu_;
  std::string buf_;
  bool failed_ = false;
  std::uint64_t bytes_ = 0;
};

/// Malformed or truncated binary wire input. Every decoder failure path
/// raises this with a position/context message; no input can reach UB.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

namespace wire {

/// Stream header magic: "XSPB".
inline constexpr char kMagic[4] = {'X', 'S', 'P', 'B'};
/// The format version, written and read. A stream header declaring any
/// other version is rejected (WireError): a reader never guesses at a
/// layout it was not built for.
inline constexpr std::uint16_t kVersion = 4;
/// Endianness marker as written by the producer; a consumer reading the
/// byte-swapped value rejects the stream (frames are host-endian memcpy).
inline constexpr std::uint16_t kEndianMark = 0xFEFF;
/// Upper bound a reader accepts for one frame payload — any larger length
/// prefix is hostile or corrupt, not data.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;  // 64 MiB
/// Spans per SpanBatch frame; the writer splits larger batches so frames
/// stay bounded and a reader can validate count * sizeof(Span) exactly.
inline constexpr std::size_t kMaxSpansPerFrame = 4096;

enum class FrameType : std::uint8_t {
  /// Payload: repeated { u32 string_id, u32 byte_len, byte_len bytes } —
  /// producer-table strings the following spans use, each sent once per
  /// stream, before its first use.
  kStringDelta = 1,
  /// Payload: u32 span_count, then span_count * sizeof(Span) raw span
  /// bytes (one memcpy of a sealed publication batch).
  kSpanBatch = 2,
  /// Payload: one Footer struct. Terminates the stream.
  kFooter = 3,
  /// Payload: one Heartbeat struct. Periodic producer-health counters;
  /// legal anywhere between header and footer.
  kHeartbeat = 4,
};

/// Fixed 16-byte stream header. span_size pins the producer's span layout
/// so a consumer built against a different Span rejects the stream instead
/// of misinterpreting it.
struct Header {
  char magic[4];
  std::uint16_t version;
  std::uint16_t endianness;
  std::uint32_t span_size;
  std::uint32_t header_size;
};
static_assert(sizeof(Header) == 16);
static_assert(std::is_trivially_copyable_v<Header>);

/// 8-byte frame prefix: every frame is self-delimiting, so a consumer can
/// skip-validate a stream without decoding payloads.
struct FrameHeader {
  std::uint8_t type;
  std::uint8_t reserved[3];
  std::uint32_t payload_size;
};
static_assert(sizeof(FrameHeader) == 8);
static_assert(std::is_trivially_copyable_v<FrameHeader>);

/// Trailing telemetry frame: the stream's own span/byte accounting, then
/// the TraceMeta the JSON footer carries. export_bytes counts every byte
/// written before this frame (header, deltas, span batches).
struct Footer {
  std::uint64_t span_count;
  std::uint64_t export_bytes;
  TraceMeta meta;
};
static_assert(sizeof(Footer) == 120);
static_assert(offsetof(Footer, meta) == 2 * sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<Footer>);

/// Heartbeat payload: a producer's live transport/sampling counters,
/// cumulative since the producer started (monotonic per stream except
/// outbox_spans, an instantaneous depth). The collector exposes them as
/// per-producer metrics and derives staleness from heartbeat arrival age
/// — a producer whose heartbeats stop while its connection stays open is
/// dead or stalled, which footers alone can never show. A new heartbeat
/// counter is one member here plus one row in kHeartbeatFields below.
struct Heartbeat {
  /// 1-based per-stream heartbeat counter (gaps mean dropped frames).
  std::uint64_t sequence;
  /// Spans handed to the producer's RemoteSink (before any shedding).
  std::uint64_t spans_published;
  /// Spans encoded onto the socket so far.
  std::uint64_t spans_sent;
  /// Spans dropped by bounded-outbox backpressure or a dying connection.
  std::uint64_t spans_dropped;
  /// Low-value spans shed selectively under backpressure.
  std::uint64_t spans_shed;
  /// Admission-sampling accounting (0/0 when no sampler is attached).
  std::uint64_t sampled_kept;
  std::uint64_t sampled_dropped;
  /// Reconnects the sink performed (each opens a fresh wire epoch).
  std::uint64_t reconnects;
  /// Spans currently queued in the producer's outbox (instantaneous).
  std::uint64_t outbox_spans;
};
static_assert(std::is_trivially_copyable_v<Heartbeat>);

/// One Heartbeat counter: the per-producer series the collector exposes
/// it as (labeled by connection), the member, its exposition kind, and a
/// one-line description.
struct HeartbeatField {
  std::string_view name;
  std::uint64_t Heartbeat::*member;
  metrics::Kind kind;
  std::string_view help;
};

/// Every Heartbeat counter in declaration (and wire) order. The
/// collector's /metrics and xsp_top's per-producer table iterate this
/// table instead of naming fields.
inline constexpr HeartbeatField kHeartbeatFields[] = {
    {"xsp_producer_heartbeat_sequence", &Heartbeat::sequence, metrics::Kind::kGauge,
     "Sequence number of the producer's last heartbeat"},
    {"xsp_producer_published_spans_total", &Heartbeat::spans_published, metrics::Kind::kCounter,
     "Spans the producer published into its RemoteSink"},
    {"xsp_producer_sent_spans_total", &Heartbeat::spans_sent, metrics::Kind::kCounter,
     "Spans the producer put on the wire"},
    {"xsp_producer_dropped_spans_total", &Heartbeat::spans_dropped, metrics::Kind::kCounter,
     "Spans the producer dropped under backpressure"},
    {"xsp_producer_shed_spans_total", &Heartbeat::spans_shed, metrics::Kind::kCounter,
     "Spans the producer shed selectively via its sampler"},
    {"xsp_producer_sampled_kept_total", &Heartbeat::sampled_kept, metrics::Kind::kCounter,
     "Spans the producer's admission sampler kept"},
    {"xsp_producer_sampled_dropped_total", &Heartbeat::sampled_dropped, metrics::Kind::kCounter,
     "Spans the producer's admission sampler rejected"},
    {"xsp_producer_reconnects_total", &Heartbeat::reconnects, metrics::Kind::kCounter,
     "Reconnects the producer's sink performed"},
    {"xsp_producer_outbox_spans", &Heartbeat::outbox_spans, metrics::Kind::kGauge,
     "Spans queued in the producer's outbox at last heartbeat"},
};
static_assert(sizeof(Heartbeat) == std::size(kHeartbeatFields) * sizeof(std::uint64_t),
              "every Heartbeat member needs a kHeartbeatFields row");
static_assert(rows_follow_declaration_order<Heartbeat>(kHeartbeatFields),
              "kHeartbeatFields rows must follow Heartbeat's declaration order");

}  // namespace wire

/// Binary wire encoder. Drop-in for the StreamingExporter drain-subscriber
/// shape: attach write_batches under kObserve or kConsume, call set_meta
/// when telemetry is final, finish() to append the footer frame.
///
/// Thread safety: write_batch/write_batches/set_meta/finish may be called
/// from any thread (N shard collectors funnel into one writer); one
/// internal mutex serializes frame emission, so frames never interleave.
///
/// Memory: allocation count is independent of span count (pinned by
/// BinaryWire.WriterAllocationIsIndependentOfSpanCount) — span payloads
/// hand the batch memory straight to the sink, the string-delta scratch is
/// reused across flushes, the sent-string bitmap grows only with the
/// highest StrId used, and the FrameSink buffer is bounded.
class BinaryWriter {
 public:
  explicit BinaryWriter(FrameSink::WriteFn sink);
  /// Fallible (socket-backed) sink: short writes stay pending in the
  /// FrameSink, kWriteError latches failure — observable via
  /// sink_failed()/sink_pending_bytes() so the owner can apply its
  /// backpressure/reconnect policy (see trace::RemoteSink).
  BinaryWriter(FrameSink::TryWriteFn sink, FrameSink::Fallible);
  explicit BinaryWriter(std::ostream& os);

  /// Finishes the stream if finish() was not called explicitly.
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Emit the strings the batch uses that this writer (a new one starts
  /// empty) has not sent yet, then the batch as SpanBatch frames. Span
  /// StrIds resolve in the global table (std::out_of_range otherwise).
  void write_batch(const SpanBatch& batch);

  /// Write every batch of a batch list — the drain-subscriber shape.
  void write_batches(const SpanBatches& batches);

  /// Set/update the telemetry the footer frame will carry. May be called
  /// any time before finish().
  void set_meta(const TraceMeta& meta);

  /// Emit a Heartbeat frame carrying the producer's live counters, and
  /// flush so the frame reaches the peer promptly (a buffered heartbeat
  /// measures nothing). Dropped after finish(), like batches.
  void write_heartbeat(const wire::Heartbeat& hb);

  /// Append the footer frame and flush. Idempotent; batches written after
  /// finish() are dropped (asserted in debug builds), mirroring
  /// StreamingExporter.
  void finish();

  /// Spans written so far (the footer's span_count).
  [[nodiscard]] std::uint64_t spans_written() const;

  /// Bytes accepted by the sink so far (including buffered bytes).
  [[nodiscard]] std::uint64_t bytes_written() const;

  /// Retry pushing bytes a saturated fallible sink has not accepted yet.
  /// Returns true when nothing remains pending (see FrameSink::flush).
  bool flush();

  /// True once the sink latched a hard write failure; the stream is dead
  /// and the owner should reconnect with a fresh writer.
  [[nodiscard]] bool sink_failed() const;

  /// Bytes buffered for a saturated sink (FrameSink::pending_bytes) — the
  /// figure a bounded-send-buffer policy compares against its cap.
  [[nodiscard]] std::size_t sink_pending_bytes() const;

 private:
  /// StringDelta frames: unsent strings the spans of [first, last) use.
  void append_string_delta_locked(const SpanBatch* first, const SpanBatch* last);
  void append_span_frames_locked(const SpanBatch& batch);

  FrameSink sink_;
  mutable std::mutex mu_;
  /// Bit `id` set once string `id` rode a delta of this stream; bit 0,
  /// the empty string every reader knows, from the start.
  std::vector<std::uint64_t> sent_ = {1};
  /// Frame-assembly scratch, reused across flushes; capacity is bounded
  /// by the soft delta cap plus one entry, not by stream length.
  std::string scratch_;
  bool finished_ = false;
  std::uint64_t spans_written_ = 0;
  TraceMeta meta_{};
};

/// The format-semantic half of binary-wire decoding, independent of where
/// the bytes come from: holds one stream's producer-id -> local-StrId
/// remap and footer state, and validates/re-interns payloads handed to it
/// as memory. BinaryReader drives it from an istream; the collector
/// daemon (net::CollectorService) drives one per connection from
/// reassembled socket frames — per-stream remap is exactly what keeps two
/// producers' ids from ever colliding after ingest. Hostile payloads
/// throw WireError; nothing reaches UB. Single-threaded per instance.
class WireDecoder {
 public:
  WireDecoder();

  WireDecoder(const WireDecoder&) = delete;
  WireDecoder& operator=(const WireDecoder&) = delete;

  /// Validate a stream header: magic, endianness, version == kVersion,
  /// span_size == sizeof(Span) and header size. Throws WireError on any
  /// mismatch.
  static void validate_header(const wire::Header& header);

  /// Parse a StringDelta payload: re-intern every entry into this
  /// process's global StringTable and extend the remap. A repeated id is
  /// tolerated if its bytes agree (idempotent replay); a redefinition
  /// with different contents throws.
  void decode_string_delta(std::string_view payload);

  /// Decode a whole SpanBatch payload (u32 count + count raw spans) into
  /// `out` (overwritten): validates the count against the payload size,
  /// memcpys the spans, and remaps every StrId field.
  void decode_span_batch(std::string_view payload, SpanBatch& out);

  /// Validate + remap every span of a batch in place (the zero-copy path
  /// for drivers that already read the raw spans into the output buffer).
  void remap_batch(SpanBatch& batch);

  /// Validate and record a Heartbeat payload (latest wins). Throws
  /// WireError unless the payload is exactly sizeof(Heartbeat).
  void decode_heartbeat(std::string_view payload);

  /// Validate and record the Footer payload. Throws WireError unless the
  /// payload is exactly sizeof(Footer).
  void decode_footer(std::string_view payload);

  /// Heartbeat frames decoded on this stream so far.
  [[nodiscard]] std::uint64_t heartbeats_seen() const noexcept { return heartbeats_seen_; }
  /// The most recent heartbeat (zeros until heartbeats_seen() > 0).
  [[nodiscard]] const wire::Heartbeat& last_heartbeat() const noexcept { return heartbeat_; }

  [[nodiscard]] bool saw_footer() const noexcept { return saw_footer_; }
  /// The footer frame (span/byte accounting zero, meta at its defaults
  /// until saw_footer()).
  [[nodiscard]] const wire::Footer& footer() const noexcept { return footer_; }
  /// The footer's telemetry.
  [[nodiscard]] const TraceMeta& meta() const noexcept { return footer_.meta; }

  /// Spans decoded (validated + remapped) so far.
  [[nodiscard]] std::uint64_t spans_decoded() const noexcept { return spans_decoded_; }

  /// Distinct producer string ids re-interned so far.
  [[nodiscard]] std::uint64_t strings_reinterned() const noexcept {
    return static_cast<std::uint64_t>(remap_.size()) - 1;  // minus the implicit id 0
  }

 private:
  /// Producer id -> this process's StrId; throws WireError for an id no
  /// delta delivered.
  [[nodiscard]] common::StrId map_id(std::uint32_t producer_id) const;
  void remap_span(Span& span) const;

  std::unordered_map<std::uint32_t, std::uint32_t> remap_;
  bool saw_footer_ = false;
  wire::Footer footer_{};
  wire::Heartbeat heartbeat_{};
  std::uint64_t heartbeats_seen_ = 0;
  std::uint64_t spans_decoded_ = 0;
};

/// Binary wire decoder. Validates the stream header on construction and
/// yields re-interned span batches frame by frame; spans come out carrying
/// StrIds of *this* process's global StringTable, so a decoded batch feeds
/// Timeline::assemble, OnlineAnalyzer replay, or a StreamingExporter
/// re-export directly. The istream driver over the WireDecoder core.
/// Single-threaded (one reader per stream).
class BinaryReader {
 public:
  /// Reads and validates the stream header. The stream must outlive the
  /// reader. Throws WireError on any mismatch.
  explicit BinaryReader(std::istream& in);

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  /// Decode up to the next SpanBatch frame into `out` (overwritten, so a
  /// caller-recycled buffer is reused). Returns false at end of stream —
  /// after the footer frame, or at a clean pre-footer EOF (a producer
  /// that died mid-export; see saw_footer()). Throws WireError on any
  /// malformed frame.
  bool next_batch(SpanBatch& out);

  /// Decode the rest of the stream into batches (convenience for replay).
  [[nodiscard]] SpanBatches read_all();

  /// True once the footer frame has been read. A stream without a footer
  /// is truncated-but-parseable: every complete frame before the cut
  /// decoded normally, only the final telemetry is missing.
  [[nodiscard]] bool saw_footer() const noexcept { return decoder_.saw_footer(); }

  /// The footer frame (see WireDecoder::footer()).
  [[nodiscard]] const wire::Footer& footer() const noexcept { return decoder_.footer(); }

  /// The footer's telemetry — hand to a StreamingExporter when
  /// re-exporting as JSON.
  [[nodiscard]] const TraceMeta& meta() const noexcept { return decoder_.meta(); }

  /// Spans decoded so far.
  [[nodiscard]] std::uint64_t spans_read() const noexcept { return decoder_.spans_decoded(); }

  /// Distinct producer string ids re-interned so far.
  [[nodiscard]] std::uint64_t strings_reinterned() const noexcept {
    return decoder_.strings_reinterned();
  }

  /// Heartbeat frames decoded so far.
  [[nodiscard]] std::uint64_t heartbeats_seen() const noexcept {
    return decoder_.heartbeats_seen();
  }

  /// The most recent heartbeat (zeros until heartbeats_seen() > 0).
  [[nodiscard]] const wire::Heartbeat& last_heartbeat() const noexcept {
    return decoder_.last_heartbeat();
  }

 private:
  void read_exact(void* dst, std::size_t n, const char* what);

  std::istream& in_;
  WireDecoder decoder_;
  std::string payload_;  ///< non-span payload scratch, reused across frames
  bool done_ = false;
};

}  // namespace xsp::trace
