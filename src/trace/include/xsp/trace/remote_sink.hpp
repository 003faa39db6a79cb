// RemoteSink: the producer half of cross-process trace ingestion — a
// SpanSink that ships spans to xsp_collectd over the binary wire format
// instead of into an in-process TraceServer.
//
// Shape: publish() appends into a pending batch under a mutex (producer
// cost is one lock + one 184-byte copy); sealed batches queue into a
// bounded outbox a background sender thread drains through a BinaryWriter
// over a socket-backed fallible FrameSink. All network latency, blocking,
// and failure lives on the sender thread — tracers never stall on the
// collector.
//
// Backpressure is bounded and *accounted*, never blocking and never
// silent (the always-on-client memory discipline the I2PA evaluation
// stresses — see PAPERS.md):
//   - outbox at max_outbox_spans  -> with a sampler attached, the batch is
//     first shed *selectively*: the sampler's value ordering keeps tail
//     outliers and the deterministic high-priority hash slice
//     (Sampler::keep_under_pressure) and drops the rest, counted in both
//     spans_shed() and spans_dropped(); survivors that still do not fit —
//     and whole batches when no sampler is attached — drop blind,
//     spans_dropped() += batch size;
//   - wire bytes pending past a fixed 1 MiB (socket saturated slower
//     than we encode) -> the next batch drops instead of encoding;
//   - a dead connection drops the batch being written, then reconnects
//     with capped exponential backoff. Each reconnect starts a fresh
//     BinaryWriter — fresh stream header and a fresh StringDelta epoch
//     (each string its spans use ships again, once), so the collector's
//     new per-connection decoder is complete without any cross-connection state.
// Batches still queued in the outbox survive a reconnect (they re-encode
// against the new epoch); only bytes already half-sent die with the
// connection. The totals surface live in the wire Heartbeat frames (the
// collector's xsp_producer_* series), as TraceMeta::remote_dropped_spans /
// remote_reconnects in the stream footer, and via accessors here.
//
// close(): seals the pending batch, drains the outbox, writes the footer
// frame, half-closes the socket (shutdown_write = "stream complete"), and
// waits up to drain_timeout_ms for the daemon to ack by closing its end —
// the drain protocol documented in src/trace/README.md. If the collector
// is unreachable, close() gives up after one connect attempt and accounts
// every undelivered span as dropped: a dead daemon must never wedge
// producer shutdown.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "xsp/net/endpoint.hpp"
#include "xsp/trace/span.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::trace {

class Sampler;  // sampler.hpp

struct RemoteSinkOptions {
  /// Spans per sealed batch (the wire-frame granularity).
  std::size_t batch_spans = 512;
  /// Outbox bound: total spans queued for the sender before newly sealed
  /// batches drop with accounting.
  std::size_t max_outbox_spans = 64 * 1024;
  int connect_timeout_ms = 1000;
  /// Reconnect backoff: initial delay, doubling to the cap.
  int backoff_initial_ms = 20;
  int backoff_max_ms = 2000;
  /// How long close() waits for the daemon's end-of-stream ack.
  int drain_timeout_ms = 2000;
  /// Cadence of wire Heartbeat frames carrying the sink's live
  /// counters, sent from the sender thread while a connection is up —
  /// the signal the collector turns into per-producer staleness (a
  /// producer whose heartbeats stop mid-connection is dead or stalled).
  /// <= 0 disables heartbeats entirely.
  int heartbeat_interval_ms = 1000;
};

class RemoteSink final : public SpanSink {
 public:
  /// Starts the sender thread immediately; connection establishment (and
  /// any retrying) happens there, so construction never blocks on the
  /// network.
  explicit RemoteSink(net::Endpoint endpoint, RemoteSinkOptions options = {});

  /// Calls close() if it was not called explicitly.
  ~RemoteSink() override;

  RemoteSink(const RemoteSink&) = delete;
  RemoteSink& operator=(const RemoteSink&) = delete;

  // SpanSink producer surface. Ids are sink-local (allocated from plain
  // counters): the collector re-maps span/parent/correlation ids into its
  // fleet-wide id space at ingest, so producers need no coordination.
  SpanId next_span_id() noexcept override;
  std::uint64_t next_correlation_id() noexcept override;
  void publish(Span span) override;

  /// Enqueue already-sealed batches — the drain-subscriber shape, so a
  /// profile::Session can forward its TraceServer drain to a collector
  /// (ProfileOptions::remote_endpoint). Same bounded-outbox accounting as
  /// publish().
  void write_batches(const SpanBatches& batches);

  /// Seal the pending partial batch and wake the sender. Does not wait
  /// for delivery.
  void flush();

  /// Telemetry to embed in the stream footer alongside the sink's own
  /// remote_dropped_spans/remote_reconnects (which are filled in by the
  /// sink itself at close()).
  void set_meta(const TraceMeta& meta);

  /// Seal + drain + footer + half-close + wait for the daemon's ack.
  /// Idempotent; publishes after close() are dropped with accounting.
  void close();

  /// Attach (or clear) the admission policy. Two roles:
  ///  - publish() consults admit() exactly like TraceServer does, so
  ///    `published == admitted + sampled_dropped` holds for direct
  ///    producers (write_batches spans were already admitted upstream and
  ///    are never re-sampled);
  ///  - under backpressure the outbox sheds low-value spans through
  ///    keep_under_pressure() instead of dropping whole batches blind.
  void set_sampler(std::shared_ptr<const Sampler> sampler);

  // --- telemetry -----------------------------------------------------------
  [[nodiscard]] std::uint64_t spans_published() const noexcept;
  /// Spans accepted by the socket layer (left the FrameSink fully).
  [[nodiscard]] std::uint64_t spans_sent() const noexcept;
  /// Spans that were admitted but never delivered (congestion, dead
  /// connections, close against an unreachable daemon). Invariant at
  /// close(): published == sent + dropped + sampled_dropped.
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept;
  /// Of spans_dropped(): how many were shed *selectively* by the
  /// sampler's value ordering under backpressure (vs. blind whole-batch
  /// congestion drops). 0 without a sampler.
  [[nodiscard]] std::uint64_t spans_shed() const noexcept;
  /// Spans publish() admitted / rejected via the sampler (0 without one).
  [[nodiscard]] std::uint64_t spans_sampled_kept() const noexcept;
  [[nodiscard]] std::uint64_t spans_sampled_dropped() const noexcept;
  [[nodiscard]] std::uint64_t reconnects() const noexcept;
  [[nodiscard]] bool connected() const noexcept;
  /// Spans currently queued in the bounded outbox (instantaneous depth —
  /// the backpressure signal the heartbeat frame also carries).
  [[nodiscard]] std::uint64_t outbox_spans() const;
  /// Heartbeat frames emitted over this sink's lifetime.
  [[nodiscard]] std::uint64_t heartbeats_sent() const noexcept;

 private:
  struct Conn;  // socket + writer, owned by the sender thread

  /// Seal pending_ into the outbox (or drop it, accounted). Caller holds mu_.
  void seal_locked();
  void enqueue_locked(SpanBatch&& batch);
  void sender_loop();
  bool connect_once(Conn& conn);
  void finish_stream(Conn& conn);
  /// Snapshot the live counters into a heartbeat frame (sender thread).
  [[nodiscard]] wire::Heartbeat make_heartbeat();

  const net::Endpoint endpoint_;
  const RemoteSinkOptions opts_;

  std::atomic<SpanId> next_id_{1};
  std::atomic<std::uint64_t> next_corr_{1};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  SpanBatch pending_;
  std::deque<SpanBatch> outbox_;
  std::size_t outbox_spans_ = 0;
  TraceMeta meta_{};
  /// Admission + shed policy (guarded by mu_; immutable once set).
  std::shared_ptr<const Sampler> sampler_;
  bool stop_ = false;
  bool closed_ = false;

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> sampled_kept_{0};
  std::atomic<std::uint64_t> sampled_dropped_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
  /// Per-stream heartbeat sequence (sender thread only).
  std::uint64_t hb_seq_ = 0;

  std::thread sender_;
};

}  // namespace xsp::trace
