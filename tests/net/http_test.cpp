// The collector's HTTP responder under friendly and hostile clients.
// Unit tests pin the HttpRequestParser state machine (incremental feeds,
// the head-size cap, token validation); the live tests point real sockets
// at a CollectorService metrics endpoint and verify hostility stays
// connection-local: an oversized request line or a slowloris dribble
// costs that one connection, while parallel scrapes and producer ingest
// proceed untouched.
#include "xsp/net/http.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "net_test_util.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sharded_trace_server.hpp"

namespace xsp::net {
namespace {

using testutil::read_to_eof;
using testutil::send_all;
using testutil::uds_endpoint;
using Status = HttpRequestParser::Status;

// --- parser state machine ---------------------------------------------------

TEST(HttpRequestParser, ParsesSimpleGet) {
  HttpRequestParser p;
  EXPECT_EQ(p.feed("GET /metrics HTTP/1.0\r\n\r\n"), Status::kComplete);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().path, "/metrics");
}

TEST(HttpRequestParser, KeepsQueryStringInPath) {
  HttpRequestParser p;
  EXPECT_EQ(p.feed("GET /metrics?format=prometheus HTTP/1.1\r\nHost: x\r\n\r\n"),
            Status::kComplete);
  EXPECT_EQ(p.request().path, "/metrics?format=prometheus");
}

TEST(HttpRequestParser, AssemblesAcrossByteSizedFeeds) {
  // The slowloris shape at the parser level: one byte per feed must walk
  // kNeedMore all the way to kComplete with the same result as one chunk.
  const std::string req = "GET /healthz HTTP/1.0\r\nUser-Agent: drip\r\n\r\n";
  HttpRequestParser p;
  for (std::size_t i = 0; i + 1 < req.size(); ++i) {
    ASSERT_EQ(p.feed(req.substr(i, 1)), Status::kNeedMore) << "byte " << i;
  }
  EXPECT_EQ(p.feed(req.substr(req.size() - 1)), Status::kComplete);
  EXPECT_EQ(p.request().path, "/healthz");
}

TEST(HttpRequestParser, OversizedHeadErrorsInOneChunk) {
  HttpRequestParser p;
  const std::string line(kMaxHttpRequestBytes + 1, 'A');
  EXPECT_EQ(p.feed(line), Status::kError);
  EXPECT_STREQ(p.error(), "request head exceeds limit");
}

TEST(HttpRequestParser, OversizedHeadErrorsAcrossManyFeeds) {
  // A client dribbling an endless request line must hit the cap, not
  // buffer forever.
  HttpRequestParser p;
  const std::string chunk(512, 'A');
  Status st = Status::kNeedMore;
  std::size_t fed = 0;
  while (st == Status::kNeedMore && fed < 4 * kMaxHttpRequestBytes) {
    st = p.feed(chunk);
    fed += chunk.size();
  }
  EXPECT_EQ(st, Status::kError);
  EXPECT_LE(fed, kMaxHttpRequestBytes + chunk.size());
  EXPECT_STREQ(p.error(), "request head exceeds limit");
}

TEST(HttpRequestParser, RejectsBinaryMethodToken) {
  HttpRequestParser p;
  EXPECT_EQ(p.feed("G@T /metrics HTTP/1.0\r\n\r\n"), Status::kError);
  EXPECT_STREQ(p.error(), "malformed method token");
}

TEST(HttpRequestParser, RejectsMissingRequestLineParts) {
  {
    HttpRequestParser p;
    EXPECT_EQ(p.feed("GET/metrics\r\n\r\n"), Status::kError);
  }
  {
    HttpRequestParser p;
    EXPECT_EQ(p.feed("GET /metrics\r\n\r\n"), Status::kError);
  }
  {
    HttpRequestParser p;
    EXPECT_EQ(p.feed(" / HTTP/1.0\r\n\r\n"), Status::kError);
  }
}

TEST(HttpRequestParser, RejectsNonSlashPathAndNonHttpVersion) {
  {
    HttpRequestParser p;
    EXPECT_EQ(p.feed("GET metrics HTTP/1.0\r\n\r\n"), Status::kError);
    EXPECT_STREQ(p.error(), "malformed request path");
  }
  {
    HttpRequestParser p;
    EXPECT_EQ(p.feed("GET /metrics GOPHER/1.0\r\n\r\n"), Status::kError);
    EXPECT_STREQ(p.error(), "unsupported protocol");
  }
}

TEST(HttpRequestParser, TerminalStatesAreSticky) {
  HttpRequestParser ok;
  ASSERT_EQ(ok.feed("GET / HTTP/1.0\r\n\r\n"), Status::kComplete);
  EXPECT_EQ(ok.feed("trailing garbage after the head"), Status::kComplete);
  EXPECT_EQ(ok.request().path, "/");

  HttpRequestParser bad;
  ASSERT_EQ(bad.feed("\x01\x02\x03 / HTTP/1.0\r\n\r\n"), Status::kError);
  EXPECT_EQ(bad.feed("GET / HTTP/1.0\r\n\r\n"), Status::kError)
      << "an errored parser must not resurrect";
}

TEST(HttpResponse, FormatsStatusLineHeadersAndBody) {
  const std::string r = http_response(200, "text/plain", "ok\n");
  EXPECT_EQ(r.compare(0, 15, "HTTP/1.0 200 OK"), 0);
  EXPECT_NE(r.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(r.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(r.substr(r.size() - 3), "ok\n");
  EXPECT_EQ(http_response(404, "text/plain", "").compare(0, 22,
                                                         "HTTP/1.0 404 Not Found"),
            0);
}

// --- live endpoint: friendly and hostile clients ----------------------------

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Collector with its metrics endpoint live on an ephemeral TCP port.
struct ScrapableCollector {
  trace::ShardedTraceServer server;
  CollectorService service;
  std::thread thread;

  static CollectorOptions with_metrics() {
    CollectorOptions copts;
    copts.metrics_endpoint = "tcp://127.0.0.1:0";
    return copts;
  }

  explicit ScrapableCollector(const Endpoint& ep)
      : server(2, trace::PublishMode::kSync),
        service(ep, server, with_metrics()),
        thread([this] { service.run(); }) {}
  ~ScrapableCollector() { stop(); }

  void stop() {
    service.stop();
    if (thread.joinable()) thread.join();
  }

  [[nodiscard]] const Endpoint& scrape_endpoint() const {
    return *service.metrics_endpoint();
  }
};

/// One full HTTP exchange: connect, send the raw request, read to close.
std::string http_exchange(const Endpoint& ep, std::string_view raw_request) {
  Socket s = try_connect(ep, 1000);
  if (!s.valid()) return {};
  if (!send_all(s, raw_request)) return {};
  s.shutdown_write();
  return read_to_eof(s);
}

TEST(MetricsEndpoint, ServesHealthzAndMetrics) {
  ScrapableCollector collector(uds_endpoint("http_serve"));
  ASSERT_NE(collector.service.metrics_endpoint(), nullptr);

  const std::string health =
      http_exchange(collector.scrape_endpoint(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(health.compare(0, 15, "HTTP/1.0 200 OK"), 0) << health;
  EXPECT_EQ(health.substr(health.size() - 3), "ok\n");

  const std::string scrape =
      http_exchange(collector.scrape_endpoint(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(scrape.compare(0, 15, "HTTP/1.0 200 OK"), 0);
  EXPECT_NE(scrape.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(scrape.find("# TYPE xsp_ingested_spans_total counter"), std::string::npos);
  EXPECT_NE(scrape.find("xsp_collector_open_connections 0"), std::string::npos);

  collector.stop();
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.http_requests, 2u);
  EXPECT_EQ(stats.http_errors, 0u);
}

TEST(MetricsEndpoint, UnknownPathAndNonGetAreErrors) {
  ScrapableCollector collector(uds_endpoint("http_404"));
  const std::string missing =
      http_exchange(collector.scrape_endpoint(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.compare(0, 22, "HTTP/1.0 404 Not Found"), 0) << missing;
  const std::string post =
      http_exchange(collector.scrape_endpoint(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(post.compare(0, 12, "HTTP/1.0 405"), 0) << post;

  collector.stop();
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.http_requests, 2u);
  EXPECT_EQ(stats.http_errors, 2u);
}

TEST(MetricsEndpoint, OversizedRequestLineIsConnectionLocal) {
  const Endpoint ingest_ep = uds_endpoint("http_oversz");
  ScrapableCollector collector(ingest_ep);

  // 4x the head budget of 'A' with no terminator: the responder must
  // answer 400 (or just cut the connection) without unbounded buffering.
  const std::string flood(4 * kMaxHttpRequestBytes, 'A');
  {
    Socket s = try_connect(collector.scrape_endpoint(), 1000);
    ASSERT_TRUE(s.valid());
    (void)send_all(s, flood);  // the daemon may 400+close mid-send
    const std::string resp = read_to_eof(s);
    if (!resp.empty()) {
      EXPECT_EQ(resp.compare(0, 12, "HTTP/1.0 400"), 0) << resp;
      EXPECT_NE(resp.find("request head exceeds limit"), std::string::npos);
    }
  }
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().http_errors >= 1; }));

  // The daemon took the hit on that connection only: a well-formed scrape
  // still answers, and producer ingest never noticed.
  trace::RemoteSink sink(ingest_ep);
  for (int i = 0; i < 10; ++i) {
    trace::Span sp;
    sp.id = sink.next_span_id();
    sp.name = trace::StrId("post_flood_op");
    sp.tracer = trace::StrId("post_flood_tracer");
    sp.begin = i;
    sp.end = i + 1;
    sink.publish(sp);
  }
  sink.close();

  const std::string scrape =
      http_exchange(collector.scrape_endpoint(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(scrape.compare(0, 15, "HTTP/1.0 200 OK"), 0) << scrape.substr(0, 64);
  EXPECT_NE(scrape.find("xsp_ingested_spans_total 10"), std::string::npos);

  collector.stop();
  EXPECT_EQ(collector.service.stats().spans_ingested, 10u);
  EXPECT_EQ(collector.service.stats().connections_errored, 0u)
      << "HTTP hostility must never count against producer connections";
}

TEST(MetricsEndpoint, SlowlorisClientDoesNotStallOtherScrapes) {
  ScrapableCollector collector(uds_endpoint("http_slow"));

  // The slow client parks half a request line and goes quiet.
  Socket slow = try_connect(collector.scrape_endpoint(), 1000);
  ASSERT_TRUE(slow.valid());
  ASSERT_TRUE(send_all(slow, "GET /metr"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Meanwhile scrapes from other clients are answered immediately.
  for (int i = 0; i < 3; ++i) {
    const std::string scrape =
        http_exchange(collector.scrape_endpoint(), "GET /metrics HTTP/1.0\r\n\r\n");
    ASSERT_EQ(scrape.compare(0, 15, "HTTP/1.0 200 OK"), 0)
        << "scrape " << i << " stalled behind a slowloris client";
  }

  // The dribbler eventually finishing gets a normal response — slow is
  // not hostile, just slow.
  ASSERT_TRUE(send_all(slow, "ics HTTP/1.0\r\n\r\n"));
  const std::string late = read_to_eof(slow);
  EXPECT_EQ(late.compare(0, 15, "HTTP/1.0 200 OK"), 0) << late.substr(0, 64);

  collector.stop();
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.http_requests, 4u);
  EXPECT_EQ(stats.http_errors, 0u);
}

TEST(MetricsEndpoint, BinaryGarbageGets400) {
  ScrapableCollector collector(uds_endpoint("http_junk"));
  const std::string resp =
      http_exchange(collector.scrape_endpoint(),
                    std::string("\x00\x01\x02\x03 / HTTP/1.0\r\n\r\n", 19));
  if (!resp.empty()) {
    EXPECT_EQ(resp.compare(0, 12, "HTTP/1.0 400"), 0) << resp;
  }
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().http_errors >= 1; }));
  collector.stop();
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
}

}  // namespace
}  // namespace xsp::net
