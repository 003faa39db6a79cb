#include "xsp/trace/wire.hpp"

#include <cassert>
#include <cstddef>
#include <istream>
#include <ostream>
#include <utility>

namespace xsp::trace {

// --- FrameSink --------------------------------------------------------------

FrameSink::FrameSink(TryWriteFn fn, Fallible) : fn_(std::move(fn)) {
  // Warm start at the flush threshold. Sub-threshold writes splice whole
  // (a formatted JSON batch can exceed this headroom), so capacity may
  // grow past the reservation once — it then sticks (clear() keeps
  // capacity), which is what makes steady-state streaming allocation-free
  // while the effective bound stays threshold + one chunk.
  buf_.reserve(kFlushThreshold + 4096);
}

FrameSink::FrameSink(WriteFn fn)
    : FrameSink(TryWriteFn([f = std::move(fn)](std::string_view chunk) {
                  f(chunk);
                  return chunk.size();  // infallible: always accepts whole
                }),
                Fallible{}) {}

FrameSink::FrameSink(std::ostream& os)
    : FrameSink(WriteFn([out = &os](std::string_view chunk) {
        out->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      })) {}

bool FrameSink::drain_locked() {
  while (!buf_.empty()) {
    const std::size_t n = fn_(buf_);
    if (n == kWriteError) {
      // Hard failure: latch, discard — a half-written frame stream is
      // unrecoverable anyway; the owner reconnects with a fresh sink.
      failed_ = true;
      buf_.clear();
      return false;
    }
    if (n == 0) return false;  // saturated: keep the bytes, retry later
    if (n >= buf_.size()) {
      buf_.clear();
    } else {
      buf_.erase(0, n);  // retained suffix stays ahead of later writes
    }
  }
  return true;
}

bool FrameSink::write(std::string_view bytes) {
  if (bytes.empty()) return !failed();
  std::lock_guard lk(mu_);
  if (failed_) return false;
  bytes_ += bytes.size();
  if (bytes.size() >= kFlushThreshold) {
    // Threshold-sized payloads (whole-batch span memcpys) skip the buffer:
    // flush what came before so order holds, then hand the caller's bytes
    // to the sink directly — zero copies on the bulk path.
    if (drain_locked()) {
      while (!bytes.empty()) {
        const std::size_t n = fn_(bytes);
        if (n == kWriteError) {
          failed_ = true;
          buf_.clear();
          return false;
        }
        if (n == 0) break;  // saturated mid-payload: buffer the rest
        bytes.remove_prefix(n < bytes.size() ? n : bytes.size());
      }
    }
    if (failed_) return false;
    buf_.append(bytes);  // whatever the sink has not accepted yet
    return true;
  }
  buf_.append(bytes);
  if (buf_.size() >= kFlushThreshold) drain_locked();
  return !failed_;
}

bool FrameSink::flush() {
  std::lock_guard lk(mu_);
  if (failed_) return false;
  return drain_locked();
}

std::uint64_t FrameSink::bytes_written() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

bool FrameSink::failed() const {
  std::lock_guard lk(mu_);
  return failed_;
}

std::size_t FrameSink::pending_bytes() const {
  std::lock_guard lk(mu_);
  return buf_.size();
}

// --- BinaryWriter -----------------------------------------------------------

namespace {

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

wire::Header make_header() {
  wire::Header h{};
  h.magic[0] = wire::kMagic[0];
  h.magic[1] = wire::kMagic[1];
  h.magic[2] = wire::kMagic[2];
  h.magic[3] = wire::kMagic[3];
  h.version = wire::kVersion;
  h.endianness = wire::kEndianMark;
  h.span_size = static_cast<std::uint32_t>(sizeof(Span));
  h.header_size = static_cast<std::uint32_t>(sizeof(wire::Header));
  return h;
}

}  // namespace

BinaryWriter::BinaryWriter(FrameSink::WriteFn sink) : sink_(std::move(sink)) {
  const wire::Header header = make_header();
  sink_.write({reinterpret_cast<const char*>(&header), sizeof header});
}

BinaryWriter::BinaryWriter(FrameSink::TryWriteFn sink, FrameSink::Fallible)
    : sink_(std::move(sink), FrameSink::Fallible{}) {
  const wire::Header header = make_header();
  sink_.write({reinterpret_cast<const char*>(&header), sizeof header});
}

BinaryWriter::BinaryWriter(std::ostream& os)
    : BinaryWriter(FrameSink::WriteFn([out = &os](std::string_view chunk) {
        out->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      })) {}

BinaryWriter::~BinaryWriter() {
  try {
    finish();
  } catch (...) {
    // A sink failing during unwind must not terminate; explicit finish()
    // is the path that propagates sink errors.
  }
}

void BinaryWriter::append_string_delta_locked(const SpanBatch* first, const SpanBatch* last) {
  // Delta framing: entries accumulate in scratch_ and are cut into a
  // frame whenever the soft cap is passed, so a batch list that uses many
  // new strings still emits bounded frames.
  constexpr std::size_t kSoftDeltaPayload = 256 * 1024;
  scratch_.clear();
  const auto cut_frame = [this] {
    if (scratch_.empty()) return;
    wire::FrameHeader fh{};
    fh.type = static_cast<std::uint8_t>(wire::FrameType::kStringDelta);
    fh.payload_size = static_cast<std::uint32_t>(scratch_.size());
    sink_.write({reinterpret_cast<const char*>(&fh), sizeof fh});
    sink_.write(scratch_);
    scratch_.clear();
  };
  const auto send = [this, &cut_frame](std::uint32_t raw) {
    const std::string_view s = common::StringTable::global().view(raw);
    if (raw / 64 >= sent_.size()) sent_.resize(raw / 64 + 1);
    sent_[raw / 64] |= std::uint64_t{1} << (raw % 64);
    const auto len = static_cast<std::uint32_t>(s.size());
    append_raw(scratch_, &raw, sizeof raw);
    append_raw(scratch_, &len, sizeof len);
    scratch_.append(s.data(), s.size());
    if (scratch_.size() >= kSoftDeltaPayload) cut_frame();
  };
  // Bit 0 (the empty string, implicit on both sides) is set at
  // construction, so the common case is one load and one test.
  const auto note = [this, &send](common::StrId id) {
    const std::uint32_t raw = id.raw();
    if (raw / 64 >= sent_.size() || ((sent_[raw / 64] >> (raw % 64)) & 1) == 0) send(raw);
  };
  for (; first != last; ++first) {
    for (const Span& span : *first) {
      note(span.name);
      note(span.tracer);
      for (const auto& [key, value] : span.tags) {
        note(key);
        note(value);
      }
      for (const auto& entry : span.metrics) note(entry.key);
      for (const auto& entry : span.inline_tags) note(entry.key);
    }
  }
  cut_frame();
}

void BinaryWriter::append_span_frames_locked(const SpanBatch& batch) {
  const Span* data = batch.data();
  std::size_t remaining = batch.size();
  while (remaining > 0) {
    const std::size_t n = remaining < wire::kMaxSpansPerFrame ? remaining : wire::kMaxSpansPerFrame;
    const auto count = static_cast<std::uint32_t>(n);
    wire::FrameHeader fh{};
    fh.type = static_cast<std::uint8_t>(wire::FrameType::kSpanBatch);
    fh.payload_size = static_cast<std::uint32_t>(sizeof count + n * sizeof(Span));
    // Header + count via scratch, then the span payload straight from the
    // batch memory — sizeof(Span) * n bytes in one write, no reformat.
    scratch_.clear();
    append_raw(scratch_, &fh, sizeof fh);
    append_raw(scratch_, &count, sizeof count);
    sink_.write(scratch_);
    sink_.write({reinterpret_cast<const char*>(data), n * sizeof(Span)});
    data += n;
    remaining -= n;
    spans_written_ += n;
  }
}

void BinaryWriter::write_batch(const SpanBatch& batch) {
  if (batch.empty()) return;
  std::lock_guard lk(mu_);
  // Mirror StreamingExporter's write-after-finish contract: assert in
  // debug, drop in release — never corrupt an already-footered stream.
  assert(!finished_ && "BinaryWriter: write after finish()");
  if (finished_) return;
  append_string_delta_locked(&batch, &batch + 1);
  append_span_frames_locked(batch);
}

void BinaryWriter::write_batches(const SpanBatches& batches) {
  if (batches.empty()) return;
  std::lock_guard lk(mu_);
  assert(!finished_ && "BinaryWriter: write after finish()");
  if (finished_) return;
  // One delta covers the whole batch list, ahead of its first span frame.
  append_string_delta_locked(batches.data(), batches.data() + batches.size());
  for (const SpanBatch& batch : batches) {
    if (!batch.empty()) append_span_frames_locked(batch);
  }
}

void BinaryWriter::set_meta(const TraceMeta& meta) {
  std::lock_guard lk(mu_);
  meta_ = meta;
}

void BinaryWriter::write_heartbeat(const wire::Heartbeat& hb) {
  std::lock_guard lk(mu_);
  if (finished_) return;
  wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(wire::FrameType::kHeartbeat);
  fh.payload_size = static_cast<std::uint32_t>(sizeof hb);
  scratch_.clear();
  append_raw(scratch_, &fh, sizeof fh);
  append_raw(scratch_, &hb, sizeof hb);
  sink_.write(scratch_);
  // A heartbeat only signals liveness if it actually leaves the buffer.
  sink_.flush();
}

void BinaryWriter::finish() {
  std::lock_guard lk(mu_);
  if (finished_) return;
  const wire::Footer footer{spans_written_, sink_.bytes_written(), meta_};
  wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(wire::FrameType::kFooter);
  fh.payload_size = static_cast<std::uint32_t>(sizeof footer);
  scratch_.clear();
  append_raw(scratch_, &fh, sizeof fh);
  append_raw(scratch_, &footer, sizeof footer);
  sink_.write(scratch_);
  finished_ = true;
  sink_.flush();
}

std::uint64_t BinaryWriter::spans_written() const {
  std::lock_guard lk(mu_);
  return spans_written_;
}

std::uint64_t BinaryWriter::bytes_written() const { return sink_.bytes_written(); }

bool BinaryWriter::flush() { return sink_.flush(); }

bool BinaryWriter::sink_failed() const { return sink_.failed(); }

std::size_t BinaryWriter::sink_pending_bytes() const {
  return sink_.pending_bytes();
}

// --- WireDecoder ------------------------------------------------------------

namespace {

/// Validate a SpanBatch frame's span count against its payload size.
/// Shared by both decode paths so the bounds logic cannot drift.
void check_span_count(std::size_t payload_size, std::uint32_t count) {
  if (count > wire::kMaxSpansPerFrame) {
    throw WireError("xsp wire: span-batch count " + std::to_string(count) +
                    " exceeds the per-frame bound");
  }
  if (payload_size != sizeof count + static_cast<std::size_t>(count) * sizeof(Span)) {
    throw WireError("xsp wire: span-batch payload length does not match its span count");
  }
}

}  // namespace

WireDecoder::WireDecoder() {
  remap_.emplace(0u, 0u);  // the reserved empty string maps to itself
}

void WireDecoder::validate_header(const wire::Header& header) {
  if (std::memcmp(header.magic, wire::kMagic, sizeof wire::kMagic) != 0) {
    throw WireError("xsp wire: bad magic (not an XSP binary trace)");
  }
  if (header.endianness != wire::kEndianMark) {
    throw WireError("xsp wire: endianness mismatch between producer and consumer");
  }
  if (header.version != wire::kVersion) {
    throw WireError("xsp wire: unsupported format version " + std::to_string(header.version) +
                    " (this build reads v" + std::to_string(wire::kVersion) + ")");
  }
  // Spans travel as raw records: a stream from a build whose Span layout
  // differs cannot be read.
  if (header.span_size != sizeof(Span)) {
    throw WireError("xsp wire: span struct size mismatch (stream " +
                    std::to_string(header.span_size) + ", this build " +
                    std::to_string(sizeof(Span)) + ")");
  }
  if (header.header_size != sizeof(wire::Header)) {
    throw WireError("xsp wire: bad header size " + std::to_string(header.header_size));
  }
}

common::StrId WireDecoder::map_id(std::uint32_t producer_id) const {
  const auto it = remap_.find(producer_id);
  if (it == remap_.end()) {
    throw WireError("xsp wire: span references string id " + std::to_string(producer_id) +
                    " that no delta delivered");
  }
  return common::StrId::from_raw(it->second);
}

void WireDecoder::decode_string_delta(std::string_view payload) {
  const std::size_t payload_size = payload.size();
  std::size_t off = 0;
  while (off < payload_size) {
    if (payload_size - off < 2 * sizeof(std::uint32_t)) {
      throw WireError("xsp wire: truncated string-delta entry header");
    }
    std::uint32_t id = 0;
    std::uint32_t len = 0;
    std::memcpy(&id, payload.data() + off, sizeof id);
    std::memcpy(&len, payload.data() + off + sizeof id, sizeof len);
    off += 2 * sizeof(std::uint32_t);
    if (len > payload_size - off) {
      throw WireError("xsp wire: string-delta entry length " + std::to_string(len) +
                      " exceeds remaining payload");
    }
    if (id == 0) throw WireError("xsp wire: string delta redefines reserved id 0");
    const std::string_view s(payload.data() + off, len);
    off += len;
    // Re-intern into this process's table. A repeated id is tolerated
    // (idempotent) as long as the bytes agree — a writer never emits one,
    // but a concatenated stream might replay a prefix.
    const std::uint32_t local = common::StringTable::global().intern(s);
    const auto [it, inserted] = remap_.emplace(id, local);
    if (!inserted && it->second != local) {
      throw WireError("xsp wire: string id " + std::to_string(id) +
                      " redefined with different contents");
    }
  }
}

void WireDecoder::decode_span_batch(std::string_view payload, SpanBatch& out) {
  std::uint32_t count = 0;
  if (payload.size() < sizeof count) {
    throw WireError("xsp wire: span-batch frame too small for its span count");
  }
  std::memcpy(&count, payload.data(), sizeof count);
  check_span_count(payload.size(), count);
  out.resize(count);
  if (count > 0) std::memcpy(out.data(), payload.data() + sizeof count, count * sizeof(Span));
  remap_batch(out);
}

void WireDecoder::remap_batch(SpanBatch& batch) {
  for (Span& span : batch) remap_span(span);
  spans_decoded_ += batch.size();
}

void WireDecoder::remap_span(Span& span) const {
  // A memcpy'd FlatMap's inline count is untrusted until checked —
  // iteration beyond capacity would read past the inline arrays. The
  // inline-tag map additionally bounds each entry's value size.
  if (!span.tags.valid() || !span.metrics.valid() || !span.inline_tags.valid()) {
    throw WireError("xsp wire: span annotation count exceeds capacity");
  }
  if (static_cast<std::uint8_t>(span.kind) > static_cast<std::uint8_t>(SpanKind::kExecution)) {
    throw WireError("xsp wire: bad span kind " +
                    std::to_string(static_cast<unsigned>(span.kind)));
  }
  const auto remap = [this](common::StrId id) { return map_id(id.raw()); };
  span.name = remap(span.name);
  span.tracer = remap(span.tracer);
  span.tags.remap_keys(remap);
  span.tags.remap_values(remap);
  span.metrics.remap_keys(remap);
  // Inline tags: keys are producer StrIds and remap like any other; the
  // value bytes ride in the span itself and pass through untouched —
  // high-cardinality values never touch this process's StringTable.
  span.inline_tags.remap_keys(remap);
}

void WireDecoder::decode_heartbeat(std::string_view payload) {
  if (payload.size() != sizeof(wire::Heartbeat)) {
    throw WireError("xsp wire: heartbeat payload length " + std::to_string(payload.size()) +
                    " (expected " + std::to_string(sizeof(wire::Heartbeat)) + ")");
  }
  std::memcpy(&heartbeat_, payload.data(), sizeof heartbeat_);
  ++heartbeats_seen_;
}

void WireDecoder::decode_footer(std::string_view payload) {
  if (payload.size() != sizeof(wire::Footer)) {
    throw WireError("xsp wire: footer payload length mismatch (expected " +
                    std::to_string(sizeof(wire::Footer)) + " bytes, got " +
                    std::to_string(payload.size()) + ")");
  }
  std::memcpy(&footer_, payload.data(), sizeof footer_);
  saw_footer_ = true;
}

// --- BinaryReader -----------------------------------------------------------

BinaryReader::BinaryReader(std::istream& in) : in_(in) {
  wire::Header header{};
  read_exact(&header, sizeof header, "stream header");
  WireDecoder::validate_header(header);
}

void BinaryReader::read_exact(void* dst, std::size_t n, const char* what) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_.gcount()) != n) {
    throw WireError(std::string("xsp wire: truncated ") + what + " (wanted " +
                    std::to_string(n) + " bytes, got " + std::to_string(in_.gcount()) + ")");
  }
}

bool BinaryReader::next_batch(SpanBatch& out) {
  out.clear();
  while (!done_) {
    wire::FrameHeader fh{};
    in_.read(reinterpret_cast<char*>(&fh), sizeof fh);
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (got == 0) {
      // Clean EOF at a frame boundary: a producer that died mid-export.
      // Everything decoded so far is valid; saw_footer() reports the gap.
      done_ = true;
      return false;
    }
    if (got != sizeof fh) throw WireError("xsp wire: truncated frame header");
    const auto payload_size = static_cast<std::size_t>(fh.payload_size);
    if (payload_size > wire::kMaxFramePayload) {
      throw WireError("xsp wire: frame payload length " + std::to_string(payload_size) +
                      " exceeds the " + std::to_string(wire::kMaxFramePayload) + "-byte bound");
    }
    switch (static_cast<wire::FrameType>(fh.type)) {
      case wire::FrameType::kStringDelta: {
        payload_.resize(payload_size);
        read_exact(payload_.data(), payload_size, "string-delta payload");
        decoder_.decode_string_delta(payload_);
        break;
      }
      case wire::FrameType::kSpanBatch: {
        std::uint32_t count = 0;
        if (payload_size < sizeof count) {
          throw WireError("xsp wire: span-batch frame too small for its span count");
        }
        read_exact(&count, sizeof count, "span-batch count");
        check_span_count(payload_size, count);
        // Decode straight into the caller's buffer: one read into span
        // memory, then in-place StrId rewrites — no intermediate copy.
        out.resize(count);
        read_exact(out.data(), count * sizeof(Span), "span-batch payload");
        decoder_.remap_batch(out);
        if (count > 0) return true;
        break;  // an empty batch frame is legal; keep scanning
      }
      case wire::FrameType::kHeartbeat: {
        payload_.resize(payload_size);
        read_exact(payload_.data(), payload_size, "heartbeat payload");
        decoder_.decode_heartbeat(payload_);
        break;  // telemetry, not data; keep scanning for spans
      }
      case wire::FrameType::kFooter: {
        payload_.resize(payload_size);
        read_exact(payload_.data(), payload_size, "footer payload");
        decoder_.decode_footer(payload_);
        done_ = true;
        // The footer terminates the stream; trailing bytes are corruption
        // (e.g. two concatenated exports), not data.
        if (in_.peek() != std::char_traits<char>::eof()) {
          throw WireError("xsp wire: data after footer frame");
        }
        return false;
      }
      default:
        throw WireError("xsp wire: unknown frame type " + std::to_string(fh.type));
    }
  }
  return false;
}

SpanBatches BinaryReader::read_all() {
  SpanBatches batches;
  SpanBatch batch;
  while (next_batch(batch)) {
    batches.push_back(std::move(batch));
    batch = SpanBatch();
  }
  return batches;
}

}  // namespace xsp::trace
