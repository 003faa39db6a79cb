#include "xsp/net/collector.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "xsp/common/string_table.hpp"

namespace xsp::net {

namespace {

using trace::Span;
using trace::SpanId;
using trace::WireError;
namespace wire = trace::wire;

using Clock = std::chrono::steady_clock;

/// `conn="<id>"` — the label every per-connection series carries. Digits
/// need no exposition escaping, so this skips the interned-label path.
std::string conn_label(std::uint64_t id) {
  return "conn=\"" + std::to_string(id) + "\"";
}

/// Index of the connection whose socket is `fd`, or conns.size().
template <typename Conns>
std::size_t index_of(const Conns& conns, int fd) {
  std::size_t i = 0;
  while (i < conns.size() && conns[i]->sock.fd() != fd) ++i;
  return i;
}

/// Producer id -> fleet id over a window of recent ids: two generations
/// of a flat table, linear probing, key 0 meaning empty (see "Remap
/// window" in collector.hpp). One allocation per table growth, none per
/// id, and freeing it is two deallocations however long the stream was.
class IdRemap {
 public:
  /// The fleet id of `key`, minted with `mint()` on first sight (or after
  /// the id left the window). Id 0 ("none") maps to 0.
  template <typename Mint>
  std::uint64_t map(std::uint64_t key, Mint&& mint) {
    if (key == 0) return 0;
    // Keep the load at most 1/2; a full-size table (2 x kRemapGeneration
    // slots) never gets here, because it rotates at kRemapGeneration ids.
    if (2 * cur_.size >= cur_.slots.size()) cur_.grow();
    Slot& slot = cur_.probe(key);
    if (slot.key == key) return slot.value;
    const Slot* old = old_.slots.empty() ? nullptr : &old_.probe(key);
    const std::uint64_t value = old != nullptr && old->key == key ? old->value : mint();
    slot = {key, value};
    if (++cur_.size == kRemapGeneration) {
      std::swap(cur_, old_);
      std::fill(cur_.slots.begin(), cur_.slots.end(), Slot{});
      cur_.size = 0;
    }
    return value;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
  };

  struct Generation {
    std::vector<Slot> slots;  ///< empty or a power of two
    std::size_t size = 0;

    /// The slot holding `key`, or the empty slot that ends its probe run.
    Slot& probe(std::uint64_t key) {
      const std::size_t mask = slots.size() - 1;
      auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
      while (slots[i].key != key && slots[i].key != 0) i = (i + 1) & mask;
      return slots[i];
    }

    void grow() {
      std::vector<Slot> prev(std::max<std::size_t>(64, 2 * slots.size()));
      prev.swap(slots);
      for (const Slot& s : prev) {
        if (s.key != 0) probe(s.key) = s;
      }
    }
  };

  Generation cur_;
  Generation old_;
};

}  // namespace

/// Per-connection ingest state. Everything here is touched only by the
/// run() thread.
struct CollectorService::Connection {
  Socket sock;
  RxBuffer rx;
  trace::WireDecoder decoder;
  /// Producer-local span id -> server-wide id, allocated lazily so a
  /// child's forward reference to a not-yet-published parent mints the
  /// parent's server id early and the later parent span reuses it.
  IdRemap span_remap;
  IdRemap corr_remap;
  trace::SpanBatch scratch;
  bool got_header = false;
  bool errored = false;  ///< hostile input or mid-frame disconnect

  // --- self-metrics (per-connection series on /metrics) ---
  std::uint64_t id = 0;  ///< monotonic accept id, the `conn` label
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t spans = 0;
  /// Arrival time of the latest heartbeat (the decoder keeps its
  /// contents); the staleness clock of the xsp_producer_* series.
  Clock::time_point last_hb{};

  explicit Connection(Socket s) : sock(std::move(s)) {}
};

/// One metrics-endpoint client. Request heads are parsed incrementally
/// (HttpRequestParser bounds the buffering), the response is buffered and
/// written as the socket accepts it, and the connection always closes
/// after one exchange — hostile clients cost one poll-loop slot, nothing
/// more.
struct CollectorService::HttpConn {
  Socket sock;
  HttpRequestParser parser;
  std::string tx;          ///< response bytes once dispatched
  std::size_t tx_off = 0;  ///< bytes of tx already written
  bool responding = false;

  explicit HttpConn(Socket s) : sock(std::move(s)) {}
};

CollectorService::CollectorService(const Endpoint& endpoint,
                                   trace::SpanSink& sink,
                                   CollectorOptions options)
    : sink_(sink),
      opts_(std::move(options)),
      listener_(std::make_unique<Listener>(endpoint)) {
  if (!opts_.metrics_endpoint.empty()) {
    http_listener_ =
        std::make_unique<Listener>(Endpoint::parse(opts_.metrics_endpoint));
  }
}

CollectorService::~CollectorService() = default;

const Endpoint& CollectorService::endpoint() const {
  return listener_->endpoint();
}

const Endpoint* CollectorService::metrics_endpoint() const {
  return http_listener_ ? &http_listener_->endpoint() : nullptr;
}

CollectorStats CollectorService::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

void CollectorService::run() {
  poller_.watch(listener_->fd(), Poller::kReadable);
  if (http_listener_) poller_.watch(http_listener_->fd(), Poller::kReadable);
  // Read before honoring hangup: POLLHUP with queued bytes still has
  // frames to ingest; service_connection reads through EOF.
  const auto service_producer = [this](int fd) {
    const std::size_t i = index_of(conns_, fd);
    if (i < conns_.size() && !service_connection(*conns_[i])) close_connection(i);
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    for (const Poller::Event& ev : poller_.wait(-1)) {
      const std::size_t h = index_of(http_conns_, ev.fd);
      if (ev.fd == listener_->fd()) {
        if (ev.readable) accept_pending();
      } else if (http_listener_ && ev.fd == http_listener_->fd()) {
        if (ev.readable) accept_http();
      } else if (h < http_conns_.size()) {
        if (!service_http(*http_conns_[h], ev)) {
          poller_.forget(ev.fd);
          http_conns_.erase(http_conns_.begin() + static_cast<std::ptrdiff_t>(h));
        }
      } else {
        service_producer(ev.fd);
      }
    }
  }

  // Graceful drain: no new connections, and the metrics endpoint goes
  // down first — scrapes must never extend a drain, and a half-written
  // response to a dying scraper is acceptable where a half-read producer
  // stream is not. Only producer connections stay watched.
  for (const auto& hc : http_conns_) poller_.forget(hc->sock.fd());
  http_conns_.clear();
  if (http_listener_) poller_.forget(http_listener_->fd());
  http_listener_.reset();
  poller_.forget(listener_->fd());
  listener_.reset();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.drain_timeout_ms);
  while (!conns_.empty()) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    for (const Poller::Event& ev : poller_.wait(static_cast<int>(left.count())))
      service_producer(ev.fd);
  }
  // Deadline passed with producers still streaming: cut them off. Their
  // RemoteSinks observe the close and account the loss on their side.
  while (!conns_.empty()) {
    conns_.back()->errored = true;
    close_connection(conns_.size() - 1);
  }
}

void CollectorService::accept_pending() {
  for (;;) {
    Socket conn = listener_->accept();
    if (!conn.valid()) return;
    poller_.watch(conn.fd(), Poller::kReadable);
    conns_.push_back(std::make_unique<Connection>(std::move(conn)));
    conns_.back()->id = next_conn_id_++;
    std::lock_guard lk(stats_mu_);
    ++stats_.connections_accepted;
    stats_.open_connections = conns_.size();
  }
}

bool CollectorService::service_connection(Connection& conn) {
  char chunk[64 * 1024];
  for (;;) {
    std::size_t n = 0;
    const IoResult r = conn.sock.read_some(chunk, sizeof chunk, n);
    if (r == IoResult::kOk) {
      conn.rx.append(std::string_view(chunk, n));
      conn.bytes += n;
      {
        std::lock_guard lk(stats_mu_);
        stats_.bytes_received += n;
      }
      try {
        parse_frames(conn);
      } catch (const WireError&) {
        // Hostile or corrupt stream: drop this client, keep the daemon.
        // Spans decoded before the bad frame were already published.
        conn.errored = true;
        return false;
      }
      continue;
    }
    if (r == IoResult::kWouldBlock) return true;
    // EOF or reset: the stream is over. EOF at a frame boundary (or
    // after the footer) is a clean close; bytes stranded mid-frame mean
    // the producer died or was cut mid-send — a truncated stream,
    // counted as errored, though everything already decoded was kept.
    if (r != IoResult::kClosed || conn.rx.size() != 0) conn.errored = true;
    return false;
  }
}

void CollectorService::parse_frames(Connection& conn) {
  for (;;) {
    const std::string_view data = conn.rx.data();
    if (!conn.got_header) {
      if (data.size() < sizeof(wire::Header)) return;
      wire::Header header{};
      std::memcpy(&header, data.data(), sizeof header);
      trace::WireDecoder::validate_header(header);
      conn.rx.consume(sizeof header);
      conn.got_header = true;
      continue;
    }
    if (data.size() < sizeof(wire::FrameHeader)) return;
    if (conn.decoder.saw_footer()) {
      // Frames after the footer: corruption or a confused client. EOF is
      // the only valid continuation.
      throw WireError("xsp collector: data after footer frame");
    }
    wire::FrameHeader fh{};
    std::memcpy(&fh, data.data(), sizeof fh);
    const auto payload_size = static_cast<std::size_t>(fh.payload_size);
    if (payload_size > opts_.max_frame_payload ||
        payload_size > wire::kMaxFramePayload) {
      throw WireError("xsp collector: frame payload length " +
                      std::to_string(payload_size) + " exceeds the bound");
    }
    if (data.size() - sizeof fh < payload_size) return;  // reassembling
    const std::string_view payload = data.substr(sizeof fh, payload_size);

    switch (static_cast<wire::FrameType>(fh.type)) {
      case wire::FrameType::kStringDelta: {
        const std::uint64_t before = conn.decoder.strings_reinterned();
        conn.decoder.decode_string_delta(payload);
        std::lock_guard lk(stats_mu_);
        stats_.strings_reinterned += conn.decoder.strings_reinterned() - before;
        break;
      }
      case wire::FrameType::kSpanBatch: {
        conn.decoder.decode_span_batch(payload, conn.scratch);
        ingest_batch(conn);
        break;
      }
      case wire::FrameType::kHeartbeat: {
        conn.decoder.decode_heartbeat(payload);
        conn.last_hb = Clock::now();
        std::lock_guard lk(stats_mu_);
        ++stats_.heartbeats_seen;
        break;
      }
      case wire::FrameType::kFooter: {
        conn.decoder.decode_footer(payload);
        const trace::TraceMeta& meta = conn.decoder.meta();
        std::lock_guard lk(stats_mu_);
        ++stats_.footers_seen;
        stats_.producer_dropped_spans += meta.remote_dropped_spans;
        stats_.producer_reconnects += meta.remote_reconnects;
        break;
      }
      default:
        throw WireError("xsp collector: unknown frame type " +
                        std::to_string(fh.type));
    }
    conn.rx.consume(sizeof fh + payload_size);
    ++conn.frames;
    std::lock_guard lk(stats_mu_);
    ++stats_.frames_parsed;
  }
}

void CollectorService::ingest_batch(Connection& conn) {
  // Strings were re-interned by the decoder; now lift the producer's
  // sink-local span/correlation ids into the server's fleet-wide space.
  const auto next_span = [this] { return sink_.next_span_id(); };
  const auto next_corr = [this] { return sink_.next_correlation_id(); };
  for (Span& span : conn.scratch) {
    span.id = conn.span_remap.map(span.id, next_span);
    span.parent = conn.span_remap.map(span.parent, next_span);
    span.correlation_id = conn.corr_remap.map(span.correlation_id, next_corr);
    sink_.publish(span);
  }
  conn.spans += conn.scratch.size();
  std::lock_guard lk(stats_mu_);
  stats_.spans_ingested += conn.scratch.size();
}

void CollectorService::close_connection(std::size_t index) {
  const bool errored = conns_[index]->errored;
  // Destroying the socket closes our end — the drain-protocol ack a
  // cleanly-finished producer is waiting for.
  poller_.forget(conns_[index]->sock.fd());
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(index));
  std::lock_guard lk(stats_mu_);
  if (errored) {
    ++stats_.connections_errored;
  } else {
    ++stats_.connections_closed;
  }
  stats_.open_connections = conns_.size();
}

// --- HTTP metrics endpoint ---------------------------------------------

void CollectorService::accept_http() {
  for (;;) {
    Socket sock = http_listener_->accept();
    if (!sock.valid()) return;
    http_conns_.push_back(std::make_unique<HttpConn>(std::move(sock)));
    poller_.watch(http_conns_.back()->sock.fd(), Poller::kReadable);
  }
}

bool CollectorService::service_http(HttpConn& hc, const Poller::Event& ev) {
  if (ev.readable && !hc.responding) {
    char chunk[4096];
    for (;;) {
      std::size_t n = 0;
      const IoResult r = hc.sock.read_some(chunk, sizeof chunk, n);
      if (r == IoResult::kWouldBlock) break;
      if (r != IoResult::kOk) return false;  // EOF/reset before a request
      const auto st = hc.parser.feed(std::string_view(chunk, n));
      if (st == HttpRequestParser::Status::kNeedMore) continue;
      // Terminal either way: build the response and flip to writing.
      if (st == HttpRequestParser::Status::kError) {
        hc.tx = http_response(400, "text/plain; charset=utf-8",
                              std::string(hc.parser.error()) + "\n");
        std::lock_guard lk(stats_mu_);
        ++stats_.http_requests;
        ++stats_.http_errors;
      } else {
        hc.tx = respond(hc.parser.request());
      }
      hc.responding = true;
      poller_.watch(hc.sock.fd(), Poller::kWritable);
      break;
    }
  }
  if (hc.responding) {
    while (hc.tx_off < hc.tx.size()) {
      std::size_t n = 0;
      const IoResult r = hc.sock.write_some(hc.tx.data() + hc.tx_off,
                                            hc.tx.size() - hc.tx_off, n);
      if (r == IoResult::kOk) {
        hc.tx_off += n;
        continue;
      }
      if (r == IoResult::kWouldBlock) return true;
      return false;  // peer went away mid-response
    }
    return false;  // response complete: close (Connection: close)
  }
  return !ev.hangup;
}

std::string CollectorService::respond(const HttpRequest& req) {
  const auto count = [this](bool error) {
    std::lock_guard lk(stats_mu_);
    ++stats_.http_requests;
    if (error) ++stats_.http_errors;
  };
  if (req.method != "GET") {
    count(true);
    return http_response(405, "text/plain; charset=utf-8",
                         "method not allowed\n");
  }
  // Strip any query string: Prometheus scrapers may append one.
  std::string_view path = req.path;
  if (const auto q = path.find('?'); q != std::string_view::npos)
    path = path.substr(0, q);
  if (path == "/healthz") {
    count(false);
    return http_response(200, "text/plain; charset=utf-8", "ok\n");
  }
  if (path == "/metrics") {
    count(false);
    scrape_buf_.clear();
    build_metrics_text(scrape_buf_);
    return http_response(200, "text/plain; version=0.0.4; charset=utf-8",
                         scrape_buf_);
  }
  count(true);
  return http_response(404, "text/plain; charset=utf-8", "not found\n");
}

void CollectorService::build_metrics_text(std::string& out) {
  using metrics::Kind;
  using metrics::append_family_header;
  using metrics::append_sample_line;

  const CollectorStats s = stats();
  for (const CollectorStatsField& f : kCollectorStatsFields) {
    append_family_header(out, f.metric, f.help, f.kind);
    append_sample_line(out, f.metric, {}, s.*f.member);
  }

  // Bounded-interning health of the collector's own global table — the
  // table every producer stream re-interns into. CI's multi-process smoke
  // asserts xsp_strtab_bytes stays under the configured budget while
  // producers publish high-cardinality inline tags.
  {
    const auto& table = common::StringTable::global();
    append_family_header(out, "xsp_strtab_bytes",
                         "Approximate resident bytes in the global string table",
                         Kind::kGauge);
    append_sample_line(out, "xsp_strtab_bytes", {},
                       static_cast<std::uint64_t>(table.approx_bytes()));
    append_family_header(out, "xsp_strtab_rejected_total",
                         "Interns rejected by the string-table byte budget or slot ceiling",
                         Kind::kCounter);
    append_sample_line(out, "xsp_strtab_rejected_total", {}, table.rejected_interns());
  }

  // Per-connection ingest series, one sample per open connection. The
  // label is the monotonic accept id: closed connections disappear from
  // the scrape (their totals live on in the aggregates above).
  struct PerConn {
    std::string_view name;
    std::string_view help;
    std::uint64_t Connection::*field;
  };
  static constexpr PerConn kPerConn[] = {
      {"xsp_connection_bytes_total", "Wire bytes received on this connection",
       &Connection::bytes},
      {"xsp_connection_frames_total", "Wire frames parsed on this connection",
       &Connection::frames},
      {"xsp_connection_spans_total", "Spans ingested from this connection",
       &Connection::spans},
  };
  for (const PerConn& pc : kPerConn) {
    if (conns_.empty()) break;
    append_family_header(out, pc.name, pc.help, Kind::kCounter);
    for (const auto& conn : conns_)
      append_sample_line(out, pc.name, conn_label(conn->id), (*conn).*pc.field);
  }

  // Producer-health series from heartbeats: the producer's *own*
  // accounting (published/dropped/outbox) surfaced while the stream is
  // live, plus how long ago the last beacon arrived. Only connections
  // that have heartbeated expose these — a producer that has not sent
  // one yet is silent, not flatlined at zero.
  const bool any_hb = [this] {
    for (const auto& conn : conns_)
      if (conn->decoder.heartbeats_seen() > 0) return true;
    return false;
  }();
  if (any_hb) {
    for (const wire::HeartbeatField& f : wire::kHeartbeatFields) {
      append_family_header(out, f.name, f.help, f.kind);
      for (const auto& conn : conns_) {
        if (conn->decoder.heartbeats_seen() == 0) continue;
        append_sample_line(out, f.name, conn_label(conn->id),
                           conn->decoder.last_heartbeat().*f.member);
      }
    }
    const auto now = Clock::now();
    append_family_header(out, "xsp_producer_heartbeat_age_seconds",
                         "Seconds since this producer's last heartbeat",
                         Kind::kGauge);
    for (const auto& conn : conns_) {
      if (conn->decoder.heartbeats_seen() == 0) continue;
      const double age =
          std::chrono::duration<double>(now - conn->last_hb).count();
      append_sample_line(out, "xsp_producer_heartbeat_age_seconds",
                         conn_label(conn->id), age);
    }
    append_family_header(
        out, "xsp_producer_stale",
        "1 when the producer's heartbeats stopped past the staleness bound",
        Kind::kGauge);
    for (const auto& conn : conns_) {
      if (conn->decoder.heartbeats_seen() == 0) continue;
      const bool stale =
          opts_.heartbeat_stale_ms > 0 &&
          now - conn->last_hb >
              std::chrono::milliseconds(opts_.heartbeat_stale_ms);
      append_sample_line(out, "xsp_producer_stale", conn_label(conn->id),
                         static_cast<std::uint64_t>(stale ? 1 : 0));
    }
  }

  // Whatever the embedding daemon registered (the sink's xsp_trace_*
  // series, tool-level counters) renders after the service's own.
  if (opts_.registry != nullptr) opts_.registry->write_prometheus(out);
}

}  // namespace xsp::net
