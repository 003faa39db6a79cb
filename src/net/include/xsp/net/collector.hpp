// CollectorService: the ingest engine behind xsp_collectd — many producer
// connections fanned into one SpanSink (in practice a ShardedTraceServer),
// the multi-client intermediary shape of LDN's SOPI design (PAPERS.md).
//
// One poll(2) loop owns everything: the listener plus every connection's
// nonblocking reads. Per connection the service keeps an RxBuffer
// (partial-frame reassembly), a trace::WireDecoder (stream validation +
// per-stream StrId re-interning, so two producers' interned ids can never
// collide after ingest), and lazy span-id/correlation-id remap tables
// that translate each producer's sink-local ids into the server's
// fleet-wide id space. Children publish before parents in the wire
// stream, so the remap allocates on first sight of an id — a forward
// parent reference simply mints the server id early.
//
// Per-connection memory is bounded (the I2PA always-on discipline): the
// RxBuffer never holds more than one maximum frame (hard cap
// max_frame_payload, default wire::kMaxFramePayload) plus a read chunk,
// and decode scratch is reused. Hostile input — bad magic, oversized
// length prefixes, unknown string ids, absurd annotation counts — throws
// WireError inside the per-connection decode, which closes that
// connection and increments connections_errored; the daemon itself never
// dies from a client's bytes.
//
// Lifecycle: run() polls with no timeout until stop(), an atomic store
// plus a poller wake that SIGTERM handlers call. Stopping enters a
// graceful drain: the listener closes, connections keep draining until
// EOF/footer or drain_timeout_ms, then the loop returns — the daemon half
// of the drain protocol in src/trace/README.md (a producer's shutdown_write
// is "stream complete"; our close after consuming everything is the ack).
//
// Self-metrics: when CollectorOptions::metrics_endpoint is set, a second
// listener on the *same* poll loop serves `GET /metrics` (Prometheus text
// exposition) and `GET /healthz` — no extra threads, and no locking for
// the per-connection series because the scrape is built on the run()
// thread that owns them. The exposition covers the service's own ingest
// counters (xsp_ingested_spans_total and friends), one series per open
// producer connection (bytes/frames/spans, labeled by accept id), the
// producer-health counters carried by wire Heartbeat frames (publish/
// drop/outbox/reconnects as the *producer* counts them, plus heartbeat
// age and a staleness flag), and finally whatever registry the embedding
// daemon wired in (the sink's own xsp_trace_* series).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xsp/metrics/registry.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/http.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {

struct CollectorOptions {
  /// Hard per-connection bound on one frame's payload (and with it the
  /// reassembly buffer). Streams exceeding it are treated as hostile.
  std::size_t max_frame_payload = trace::wire::kMaxFramePayload;
  /// How long a graceful drain waits for connected producers to finish.
  int drain_timeout_ms = 5000;
  /// URI of the HTTP self-metrics endpoint ("tcp://127.0.0.1:9464" or
  /// "unix:/run/xsp-metrics.sock"); empty disables it. Served from the
  /// run() poll loop — no additional threads.
  std::string metrics_endpoint;
  /// Extra series appended to /metrics after the service's own (the
  /// daemon registers its sink's series here). May be null; must outlive
  /// the service when set.
  metrics::Registry* registry = nullptr;
  /// A producer whose heartbeats stop for longer than this while its
  /// connection stays open is flagged stale (xsp_producer_stale = 1).
  /// Applies only to connections that have sent at least one heartbeat.
  /// <= 0 disables.
  int heartbeat_stale_ms = 5000;
};

/// Ingest counters, snapshot via CollectorService::stats(). All are
/// monotonic except open_connections. A new counter is one member here
/// plus one row in kCollectorStatsFields below.
struct CollectorStats {
  std::uint64_t connections_accepted = 0;
  /// Clean closes: footer seen, or EOF at a frame boundary.
  std::uint64_t connections_closed = 0;
  /// Protocol violations (WireError) and mid-frame disconnects.
  std::uint64_t connections_errored = 0;
  /// Producer connections open right now (instantaneous).
  std::uint64_t open_connections = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t spans_ingested = 0;
  std::uint64_t strings_reinterned = 0;
  /// Wire frames fully parsed across all connections (all types).
  std::uint64_t frames_parsed = 0;
  std::uint64_t footers_seen = 0;
  /// Wire Heartbeat frames ingested (producer liveness beacons).
  std::uint64_t heartbeats_seen = 0;
  /// HTTP requests answered on the metrics endpoint (any status).
  std::uint64_t http_requests = 0;
  /// Of http_requests: non-200 responses plus dropped hostile requests.
  std::uint64_t http_errors = 0;
  /// Summed from producer footers: spans the *producers* dropped before
  /// the bytes ever reached us, and their reconnect counts — the fleet's
  /// completeness story in two numbers.
  std::uint64_t producer_dropped_spans = 0;
  std::uint64_t producer_reconnects = 0;
};

/// One CollectorStats counter: its key (xsp_collectd's --stats-json and
/// stats: lines), its /metrics family, the member, the exposition kind,
/// and a one-line description.
struct CollectorStatsField {
  std::string_view key;
  std::string_view metric;
  std::uint64_t CollectorStats::*member;
  metrics::Kind kind;
  std::string_view help;
};

/// Every CollectorStats counter in declaration order. /metrics,
/// xsp_collectd's JSON and stats: lines, and xsp_top --daemon iterate
/// this table instead of naming fields.
inline constexpr CollectorStatsField kCollectorStatsFields[] = {
    {"connections_accepted", "xsp_collector_connections_accepted_total",
     &CollectorStats::connections_accepted, metrics::Kind::kCounter,
     "Producer connections accepted"},
    {"connections_closed", "xsp_collector_connections_closed_total",
     &CollectorStats::connections_closed, metrics::Kind::kCounter,
     "Producer connections closed cleanly"},
    {"connections_errored", "xsp_collector_connections_errored_total",
     &CollectorStats::connections_errored, metrics::Kind::kCounter,
     "Producer connections dropped for protocol violations or truncation"},
    {"open_connections", "xsp_collector_open_connections", &CollectorStats::open_connections,
     metrics::Kind::kGauge, "Producer connections currently open"},
    {"bytes_received", "xsp_collector_bytes_received_total", &CollectorStats::bytes_received,
     metrics::Kind::kCounter, "Wire bytes received from producers"},
    // The fleet-accounting headline: what actually reached the sink. CI's
    // multi-process smoke checks it against the producers' own
    // sent-minus-dropped totals.
    {"spans_ingested", "xsp_ingested_spans_total", &CollectorStats::spans_ingested,
     metrics::Kind::kCounter, "Spans ingested into the collector's sink across all connections"},
    {"strings_reinterned", "xsp_collector_strings_reinterned_total",
     &CollectorStats::strings_reinterned, metrics::Kind::kCounter,
     "Producer string-table entries re-interned"},
    {"frames_parsed", "xsp_collector_frames_total", &CollectorStats::frames_parsed,
     metrics::Kind::kCounter, "Wire frames parsed (all types)"},
    {"footers_seen", "xsp_collector_footers_total", &CollectorStats::footers_seen,
     metrics::Kind::kCounter, "Stream footer frames ingested"},
    {"heartbeats_seen", "xsp_collector_heartbeats_total", &CollectorStats::heartbeats_seen,
     metrics::Kind::kCounter, "Producer heartbeat frames ingested"},
    {"http_requests", "xsp_collector_http_requests_total", &CollectorStats::http_requests,
     metrics::Kind::kCounter, "HTTP requests answered on this endpoint"},
    {"http_errors", "xsp_collector_http_errors_total", &CollectorStats::http_errors,
     metrics::Kind::kCounter, "HTTP requests answered with a non-200 status"},
    {"producer_dropped_spans", "xsp_collector_producer_dropped_spans_total",
     &CollectorStats::producer_dropped_spans, metrics::Kind::kCounter,
     "Spans producers reported dropping before send (from footers)"},
    {"producer_reconnects", "xsp_collector_producer_reconnects_total",
     &CollectorStats::producer_reconnects, metrics::Kind::kCounter,
     "Reconnects producers reported (from footers)"},
};
static_assert(sizeof(CollectorStats) ==
                  std::size(kCollectorStatsFields) * sizeof(std::uint64_t),
              "every CollectorStats member needs a kCollectorStatsFields row");
static_assert(trace::rows_follow_declaration_order<CollectorStats>(kCollectorStatsFields),
              "kCollectorStatsFields rows must follow CollectorStats' declaration order");

class CollectorService {
 public:
  /// Binds and listens immediately (so endpoint() reports the resolved
  /// ephemeral port before run() is entered); throws NetError on bind
  /// failure. `sink` must outlive the service.
  CollectorService(const Endpoint& endpoint, trace::SpanSink& sink,
                   CollectorOptions options = {});
  ~CollectorService();

  CollectorService(const CollectorService&) = delete;
  CollectorService& operator=(const CollectorService&) = delete;

  /// Accept/ingest until stop(), then drain gracefully. Call from one
  /// thread (the daemon's main thread, or a test's service thread).
  void run();

  /// Request shutdown + drain. Thread-safe; callable from a signal
  /// handler (an atomic store and one write(2)).
  void stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    poller_.wake();
  }

  /// The endpoint actually bound (TCP port resolved if 0 was requested).
  [[nodiscard]] const Endpoint& endpoint() const;

  /// The HTTP metrics endpoint actually bound, or nullptr when
  /// CollectorOptions::metrics_endpoint was empty.
  [[nodiscard]] const Endpoint* metrics_endpoint() const;

  [[nodiscard]] CollectorStats stats() const;

 private:
  struct Connection;
  struct HttpConn;

  void accept_pending();
  /// Read + parse one connection; returns false when it should be closed.
  bool service_connection(Connection& conn);
  /// Parse all complete frames in the rx buffer. Throws WireError.
  void parse_frames(Connection& conn);
  void ingest_batch(Connection& conn);
  void close_connection(std::size_t index);

  void accept_http();
  /// Progress one HTTP connection; returns false when it should close.
  bool service_http(HttpConn& hc, const Poller::Event& ev);
  /// Route a parsed request to its response bytes. Run() thread only.
  [[nodiscard]] std::string respond(const HttpRequest& req);
  /// Append the full Prometheus exposition: service counters, per-
  /// connection/producer series, then opts_.registry. Run() thread only.
  void build_metrics_text(std::string& out);

  trace::SpanSink& sink_;
  CollectorOptions opts_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::unique_ptr<Connection>> conns_;
  Poller poller_;  ///< run()'s event loop; stop() wakes it
  std::atomic<bool> stop_{false};

  /// HTTP responder state (run() thread only past construction).
  std::unique_ptr<Listener> http_listener_;
  std::vector<std::unique_ptr<HttpConn>> http_conns_;
  std::string scrape_buf_;  ///< reused across scrapes
  std::uint64_t next_conn_id_ = 1;

  mutable std::mutex stats_mu_;
  CollectorStats stats_;
};

}  // namespace xsp::net
