// CollectorService + RemoteSink end to end: the cross-process ingestion
// path exercised in-process over real sockets. Covers the acceptance
// criteria of the collector tentpole — a 4-producer fleet assembling the
// same per-producer timelines remote as in-process, colliding fabricated
// StrIds never cross-contaminating after remap, the windowed id remaps
// holding their links with a flat live heap — plus the connection
// lifecycle: truncated frames, hostile bytes, reconnect with a fresh
// StringDelta epoch, and a daemon killed mid-stream leaving producers
// alive with every loss accounted.
#include "xsp/net/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net_test_util.hpp"
#include "test_heap_bytes.hpp"
#include "xsp/metrics/exposition.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {
namespace {

using testutil::accept_within;
using testutil::read_to_eof;
using testutil::read_until_contains;
using testutil::send_all;
using testutil::uds_endpoint;
using trace::kNoSpan;
using trace::Span;
using trace::SpanId;
using trace::StrId;
using xsp::TimePoint;

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

/// A collector daemon in miniature: sharded server sink + service running
/// on its own thread, stopped and joined on destruction.
struct RunningCollector {
  trace::ShardedTraceServer server;
  CollectorService service;
  std::thread thread;

  explicit RunningCollector(const Endpoint& ep, CollectorOptions copts = {})
      : server(2, trace::PublishMode::kSync),
        service(ep, server, copts),
        thread([this] { service.run(); }) {}
  ~RunningCollector() { stop(); }

  void stop() {
    service.stop();
    if (thread.joinable()) thread.join();
  }
};

// --- raw wire builders (crafted producer streams) ---------------------------

template <typename T>
void put_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

std::string header_bytes() {
  trace::wire::Header h{};
  std::memcpy(h.magic, trace::wire::kMagic, sizeof h.magic);
  h.version = trace::wire::kVersion;
  h.endianness = trace::wire::kEndianMark;
  h.span_size = static_cast<std::uint32_t>(sizeof(Span));
  h.header_size = static_cast<std::uint32_t>(sizeof(trace::wire::Header));
  std::string out;
  put_pod(out, h);
  return out;
}

std::string frame(trace::wire::FrameType type, std::string_view payload,
                  std::int64_t lie_about_size = -1) {
  trace::wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(type);
  fh.payload_size = lie_about_size >= 0 ? static_cast<std::uint32_t>(lie_about_size)
                                        : static_cast<std::uint32_t>(payload.size());
  std::string out;
  put_pod(out, fh);
  out.append(payload);
  return out;
}

std::string delta_entry(std::uint32_t id, std::string_view s) {
  std::string out;
  put_pod(out, id);
  put_pod(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
  return out;
}

std::string span_batch_payload(const std::vector<Span>& spans) {
  std::string out;
  put_pod(out, static_cast<std::uint32_t>(spans.size()));
  out.append(reinterpret_cast<const char*>(spans.data()), spans.size() * sizeof(Span));
  return out;
}

std::string footer_frame(const trace::wire::Footer& f) {
  std::string payload;
  put_pod(payload, f);
  return frame(trace::wire::FrameType::kFooter, payload);
}

// --- fleet-member publication (identical remote and in-process) -------------

/// Publish one producer's spans into any SpanSink: a parent chain with
/// producer-specific names, levels, and correlation ids — the shape whose
/// per-producer timeline must survive collection unchanged.
void publish_fleet_member(trace::SpanSink& sink, int producer, std::size_t count) {
  const StrId tracer("producer_" + std::to_string(producer));
  SpanId prev = kNoSpan;
  for (std::size_t i = 0; i < count; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.parent = prev;
    s.level = trace::kKernelLevel;
    s.name = StrId("fleet_op_" + std::to_string(producer) + "_" +
                   std::to_string(i % 5));
    s.tracer = tracer;
    s.begin = static_cast<TimePoint>(i * 10);
    s.end = s.begin + 7;
    if (i % 3 == 0) s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
    prev = s.id;
  }
}

/// Per-producer digest: span count plus the sorted (name, begin, end)
/// multiset — id-free, so it compares across remapped id spaces.
using TimelineDigest = std::vector<std::tuple<std::uint32_t, std::int64_t, std::int64_t>>;

std::map<std::uint32_t, TimelineDigest> digest_by_tracer(const std::vector<Span>& spans) {
  std::map<std::uint32_t, TimelineDigest> out;
  for (const Span& s : spans) {
    out[s.tracer.raw()].emplace_back(s.name.raw(), s.begin, s.end);
  }
  for (auto& [tracer, digest] : out) std::sort(digest.begin(), digest.end());
  return out;
}

// --- end-to-end round trips -------------------------------------------------

TEST(CollectorE2E, UdsRoundTripDeliversEverySpanExactlyOnce) {
  const Endpoint ep = uds_endpoint("col_rt");
  RunningCollector collector(ep);

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 64;
  {
    trace::RemoteSink sink(ep, opts);
    publish_fleet_member(sink, 0, 1000);
    sink.close();  // footer + half-close + wait for the daemon's ack
    EXPECT_EQ(sink.spans_published(), 1000u);
    EXPECT_EQ(sink.spans_sent(), 1000u);
    EXPECT_EQ(sink.spans_dropped(), 0u);
    EXPECT_EQ(sink.reconnects(), 0u);
  }
  collector.stop();

  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 1000u);
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_errored, 0u);
  EXPECT_EQ(stats.spans_ingested, 1000u);
  EXPECT_EQ(stats.footers_seen, 1u);
  EXPECT_GT(stats.bytes_received, 1000u * sizeof(Span));

  // Names arrived through the re-intern remap, not raw id reuse.
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 1000u);
  for (const Span& s : spans) EXPECT_EQ(s.tracer, "producer_0");
}

TEST(CollectorE2E, TcpEphemeralPortRoundTrips) {
  RunningCollector collector(Endpoint::parse("tcp://127.0.0.1:0"));
  const Endpoint bound = collector.service.endpoint();
  ASSERT_NE(bound.port, 0);

  trace::RemoteSink sink(bound);
  publish_fleet_member(sink, 0, 100);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 100u);
}

TEST(CollectorE2E, FourProducerFleetMatchesInProcessPublication) {
  // The acceptance criterion: N>=4 external producers through the
  // collector assemble into the same per-producer timelines as publishing
  // into a sharded server in-process — exact span counts, names equal.
  constexpr int kProducers = 4;
  constexpr std::size_t kSpansEach = 400;

  trace::ShardedTraceServer reference(2, trace::PublishMode::kSync);
  for (int p = 0; p < kProducers; ++p) publish_fleet_member(reference, p, kSpansEach);
  reference.flush();

  const Endpoint ep = uds_endpoint("col_fleet");
  RunningCollector collector(ep);
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&ep, p, kSpansEach] {
        trace::RemoteSinkOptions opts;
        opts.batch_spans = 32;
        trace::RemoteSink sink(ep, opts);
        publish_fleet_member(sink, p, kSpansEach);
        sink.close();
        EXPECT_EQ(sink.spans_sent(), kSpansEach);
        EXPECT_EQ(sink.spans_dropped(), 0u);
      });
    }
    for (std::thread& t : producers) t.join();
  }
  collector.stop();
  collector.server.flush();

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(stats.footers_seen, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(stats.spans_ingested, kProducers * kSpansEach);

  const std::vector<Span> collected = collector.server.take_trace();
  const std::vector<Span> expected = reference.take_trace();
  ASSERT_EQ(collected.size(), expected.size());
  EXPECT_EQ(digest_by_tracer(collected), digest_by_tracer(expected));

  // Remapped ids stay producer-coherent: every parent reference resolves
  // within its own producer's id set — never into another producer's.
  std::map<std::uint32_t, std::vector<const Span*>> groups;
  for (const Span& s : collected) groups[s.tracer.raw()].push_back(&s);
  ASSERT_EQ(groups.size(), static_cast<std::size_t>(kProducers));
  for (const auto& [tracer, spans] : groups) {
    std::vector<SpanId> ids;
    for (const Span* s : spans) ids.push_back(s->id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "duplicate remapped span id within a producer";
    for (const Span* s : spans) {
      if (s->parent == kNoSpan) continue;
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), s->parent))
          << "parent remapped outside its producer's id set";
    }
  }
}

// --- crafted-stream isolation and hostility ---------------------------------

TEST(CollectorE2E, CollidingFabricatedStrIdsNeverCrossContaminate) {
  // Two producers whose streams fabricate the *same* string id with
  // different contents, interleaved on the wire. Per-connection remap
  // must keep them apart; shared-table reuse would swap names.
  constexpr std::uint32_t kNameId = 0x00CC0001;
  constexpr std::uint32_t kTracerId = 0x00CC0002;
  const auto stream_parts = [&](std::string_view name, std::string_view tracer,
                                std::uint64_t footer_drops, std::uint64_t footer_reconnects) {
    std::string delta = delta_entry(kNameId, name);
    delta += delta_entry(kTracerId, tracer);
    Span s;
    s.id = 77;  // identical producer-local span id on both streams
    s.name = StrId::from_raw(kNameId);
    s.tracer = StrId::from_raw(kTracerId);
    s.begin = 5;
    s.end = 9;
    trace::wire::Footer f{};
    f.span_count = 1;
    f.meta.remote_dropped_spans = footer_drops;
    f.meta.remote_reconnects = footer_reconnects;
    return std::make_pair(
        header_bytes() + frame(trace::wire::FrameType::kStringDelta, delta),
        frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s})) +
            footer_frame(f));
  };
  const auto [a_head, a_tail] = stream_parts("collide_alpha", "collider_tracer_a", 3, 1);
  const auto [b_head, b_tail] = stream_parts("collide_beta", "collider_tracer_b", 4, 2);

  const Endpoint ep = uds_endpoint("col_collide");
  RunningCollector collector(ep);
  Socket a = try_connect(ep, 1000);
  Socket b = try_connect(ep, 1000);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  // Interleave the two streams so both remaps are live simultaneously.
  ASSERT_TRUE(send_all(a, a_head));
  ASSERT_TRUE(send_all(b, b_head));
  ASSERT_TRUE(send_all(a, a_tail));
  ASSERT_TRUE(send_all(b, b_tail));
  a.shutdown_write();
  b.shutdown_write();
  (void)read_to_eof(a);  // daemon ack
  (void)read_to_eof(b);
  collector.stop();

  collector.server.flush();
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 2u);
  const Span* alpha = nullptr;
  const Span* beta = nullptr;
  for (const Span& s : spans) {
    if (s.name == "collide_alpha") alpha = &s;
    if (s.name == "collide_beta") beta = &s;
  }
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(alpha->tracer, "collider_tracer_a");
  EXPECT_EQ(beta->tracer, "collider_tracer_b");
  EXPECT_NE(alpha->id, beta->id) << "colliding producer span ids must remap apart";

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.footers_seen, 2u);
  EXPECT_EQ(stats.producer_dropped_spans, 7u);  // 3 + 4, summed from footers
  EXPECT_EQ(stats.producer_reconnects, 3u);     // 1 + 2
  EXPECT_EQ(stats.connections_closed, 2u);
  EXPECT_EQ(stats.connections_errored, 0u);
}

/// Producer stream of the remap-window test. Span k (1-based) has id k,
/// its parent is span k + kParentAhead (children publish before parents),
/// and it launches correlation id k — except every 8th span, which is the
/// execution of span k - kExecLag's launch. Every kRootEvery-th span is a
/// child of kRoot instead, an id no span has, referenced for the whole
/// stream at gaps shorter than one generation. span.begin carries k.
constexpr std::uint64_t kParentAhead = 3;
constexpr std::uint64_t kExecLag = 4001;  // odd: the launch is never an 8th span
constexpr std::uint64_t kRootEvery = 50000;
constexpr SpanId kRoot = SpanId{1} << 40;

Span window_span(std::uint64_t k, StrId name, StrId tracer) {
  Span s;
  s.id = k;
  s.parent = k % kRootEvery == 0 ? kRoot : k + kParentAhead;
  s.name = name;
  s.tracer = tracer;
  s.begin = static_cast<TimePoint>(k);
  s.end = s.begin + 1;
  const bool exec = k % 8 == 0;
  s.kind = exec ? trace::SpanKind::kExecution : trace::SpanKind::kLaunch;
  s.correlation_id = !exec ? k : k > kExecLag ? k - kExecLag : 0;
  return s;
}

/// Ingest sink of the remap-window test: keeps no spans. In a fixed ring
/// it remembers the fleet ids of recent producer spans and counts whether
/// each parent edge and launch/execution pair resolved to its partner.
class WindowCheckSink final : public trace::SpanSink {
 public:
  SpanId next_span_id() noexcept override { return ++span_ids_; }
  std::uint64_t next_correlation_id() noexcept override { return ++corr_ids_; }

  void publish(Span span) override {
    const auto k = static_cast<std::uint64_t>(span.begin);
    ring_[k % kRing] = {span.parent, span.correlation_id};
    if (k == 1) first_id = span.id;
    last_parent = span.parent;
    if (k % kRootEvery == 0) {
      if (root == 0) root = span.parent;
      ++(span.parent == root ? roots_ok : roots_bad);
    }
    if (k > kParentAhead && (k - kParentAhead) % kRootEvery != 0) {
      ++(ring_[(k - kParentAhead) % kRing].parent == span.id ? parents_ok : parents_bad);
    }
    if (k % 8 == 0 && k > kExecLag) {
      ++(ring_[(k - kExecLag) % kRing].corr == span.correlation_id ? pairs_ok : pairs_bad);
    }
  }

  SpanId first_id = 0;
  SpanId last_parent = 0;
  SpanId root = 0;  ///< fleet id kRoot mapped to on first sight
  std::uint64_t parents_ok = 0, parents_bad = 0, pairs_ok = 0, pairs_bad = 0;
  std::uint64_t roots_ok = 0, roots_bad = 0;

 private:
  static constexpr std::uint64_t kRing = 8192;  // > kExecLag
  struct Seen {
    SpanId parent = 0;
    std::uint64_t corr = 0;
  };
  std::vector<Seen> ring_ = std::vector<Seen>(kRing);
  SpanId span_ids_ = 0;
  std::uint64_t corr_ids_ = 0;
};

TEST(CollectorE2E, IdRemapsHoldAWindowAndLiveHeapStaysFlat) {
  // One connection streams 8 generations of fresh span and correlation
  // ids. Every reference inside the window resolves, and an id referenced
  // at gaps under one generation stays linked for the whole stream (a hit
  // in the old generation moves it back into the current one); the daemon's live
  // heap after 8 generations matches the heap after 2, when both remap
  // generations already reached full size (the unbounded maps grew by
  // tens of MB here).
  const Endpoint ep = uds_endpoint("col_window");
  WindowCheckSink sink;
  CollectorService service(ep, sink);
  std::thread loop([&service] { service.run(); });

  Socket sock = try_connect(ep, 1000);
  ASSERT_TRUE(sock.valid());
  trace::BinaryWriter writer(
      [&sock](std::string_view chunk) { ASSERT_TRUE(send_all(sock, chunk)); });
  const StrId name("remap_window_op");
  const StrId tracer("remap_window");
  std::uint64_t k = 0;
  trace::SpanBatch batch;
  const auto stream_until = [&](std::uint64_t last) {
    while (k < last) {
      batch.clear();
      while (batch.size() < 1024 && k < last) batch.push_back(window_span(++k, name, tracer));
      writer.write_batch(batch);
    }
    writer.flush();
    return wait_until([&] { return service.stats().spans_ingested == last; }, 120000);
  };

  ASSERT_TRUE(stream_until(2 * kRemapGeneration));
  const std::int64_t heap_at_2g = g_xsp_test_live_heap_bytes.load();
  ASSERT_TRUE(stream_until(8 * kRemapGeneration));
  const std::int64_t heap_at_8g = g_xsp_test_live_heap_bytes.load();
  // A reference to an id older than two generations: a fresh fleet id.
  Span stale = window_span(++k, name, tracer);
  stale.parent = 1;
  writer.write_batch({stale});
  writer.finish();
  sock.shutdown_write();
  (void)read_to_eof(sock);  // daemon ack
  service.stop();
  loop.join();

  EXPECT_LT(heap_at_8g - heap_at_2g, std::int64_t{1} << 20)
      << "live heap grew from " << heap_at_2g << " to " << heap_at_8g << " bytes";
  EXPECT_EQ(sink.parents_bad, 0u);
  EXPECT_EQ(sink.parents_ok, k - kParentAhead - (k - kParentAhead) / kRootEvery);
  // An id referenced within every generation never leaves the window.
  EXPECT_EQ(sink.roots_bad, 0u);
  EXPECT_EQ(sink.roots_ok, k / kRootEvery);
  EXPECT_EQ(sink.pairs_bad, 0u);
  EXPECT_EQ(sink.pairs_ok, k / 8 - kExecLag / 8);
  EXPECT_NE(sink.last_parent, 0u);
  EXPECT_NE(sink.last_parent, sink.first_id);
  EXPECT_EQ(service.stats().connections_errored, 0u);
}

TEST(CollectorE2E, TruncatedFrameErrorsConnectionAndDaemonServesOn) {
  const Endpoint ep = uds_endpoint("col_trunc");
  RunningCollector collector(ep);
  {
    Socket cut = try_connect(ep, 1000);
    ASSERT_TRUE(cut.valid());
    // Frame header promises 100 payload bytes; deliver 10 and vanish.
    std::string bytes = header_bytes();
    bytes += frame(trace::wire::FrameType::kSpanBatch, std::string(10, '\x01'),
                   /*lie_about_size=*/100);
    ASSERT_TRUE(send_all(cut, bytes));
  }
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }))
      << "mid-frame disconnect must count as errored";

  // The daemon took the hit on that connection only; a well-behaved
  // producer connecting next streams normally.
  trace::RemoteSink sink(ep);
  publish_fleet_member(sink, 1, 10);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 10u);
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.spans_ingested, 10u);
}

TEST(CollectorE2E, HostileBytesAreContainedPerConnection) {
  const Endpoint ep = uds_endpoint("col_hostile");
  RunningCollector collector(ep);
  {
    Socket junk = try_connect(ep, 1000);
    ASSERT_TRUE(junk.valid());
    ASSERT_TRUE(send_all(junk, "JUNKJUNKJUNKJUNK"));  // 16 bytes of non-header
    junk.shutdown_write();
    (void)read_to_eof(junk);  // daemon closes on the WireError
  }
  {
    Socket oversized = try_connect(ep, 1000);
    ASSERT_TRUE(oversized.valid());
    std::string bytes = header_bytes();
    bytes += frame(trace::wire::FrameType::kSpanBatch, "",
                   static_cast<std::int64_t>(trace::wire::kMaxFramePayload) + 1);
    ASSERT_TRUE(send_all(oversized, bytes));
    oversized.shutdown_write();
    (void)read_to_eof(oversized);
  }
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 2; }));

  trace::RemoteSink sink(ep);
  publish_fleet_member(sink, 2, 5);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 5u);
  EXPECT_EQ(collector.service.stats().spans_ingested, 5u);
}

TEST(CollectorE2E, ConfiguredFrameBoundIsEnforced) {
  const Endpoint ep = uds_endpoint("col_bound");
  CollectorOptions copts;
  copts.max_frame_payload = 1024;  // tighter than the format's 64 MiB cap
  RunningCollector collector(ep, copts);
  Socket s = try_connect(ep, 1000);
  ASSERT_TRUE(s.valid());
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta, "", /*lie_about_size=*/4096);
  ASSERT_TRUE(send_all(s, bytes));
  EXPECT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }));
  collector.stop();
  EXPECT_EQ(collector.service.stats().spans_ingested, 0u);
}

// --- connection lifecycle ---------------------------------------------------

TEST(CollectorE2E, StopOnIdleServiceReturnsWithoutWaitingForAPollTick) {
  // The run() loop polls with no timeout; stop() wakes it through the
  // poller's wakeup eventfd, so stop + join on an idle service is two
  // thread handoffs. A loop that polled on a 50 ms tick would see a stop
  // landing 10 ms into its wait only ~40 ms later; 20 ms leaves room for
  // scheduler delay on a loaded machine.
  constexpr int kTrials = 10;
  std::vector<double> ms;
  for (int trial = 0; trial < kTrials; ++trial) {
    RunningCollector collector(uds_endpoint("col_stop_" + std::to_string(trial)));
    // Let run() reach its blocking poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto t0 = std::chrono::steady_clock::now();
    collector.stop();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  EXPECT_LT(ms[kTrials / 2], 20.0) << "median stop()+join over " << kTrials
                                   << " trials, max " << ms.back() << " ms";
}

TEST(CollectorE2E, GracefulDrainConsumesStreamInFlightAtStop) {
  const Endpoint ep = uds_endpoint("col_drain");
  CollectorOptions copts;
  copts.drain_timeout_ms = 3000;
  RunningCollector collector(ep, copts);

  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  Span s;
  s.id = 1;
  s.name = StrId("drain_op");
  s.tracer = StrId("drain_tracer");
  s.begin = 0;
  s.end = 1;
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta,
                 delta_entry(s.name.raw(), "drain_op") +
                     delta_entry(s.tracer.raw(), "drain_tracer"));
  bytes += frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s}));
  ASSERT_TRUE(send_all(producer, bytes));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().spans_ingested == 1; }));

  // Stop with the connection still open: the drain phase must keep
  // consuming it until our half-close, then ack — not cut it off.
  collector.service.stop();
  trace::wire::Footer f{};
  f.span_count = 1;
  ASSERT_TRUE(send_all(producer, footer_frame(f)));
  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.footers_seen, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_errored, 0u);
}

TEST(RemoteSinkLifecycle, ReconnectOpensFreshStreamAndStringDeltaEpoch) {
  const Endpoint ep = uds_endpoint("col_epoch");
  Listener listener(ep);  // this test plays the daemon, byte-level

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 1;  // every publish seals and sends promptly
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 100;
  opts.drain_timeout_ms = 300;
  trace::RemoteSink sink(ep, opts);

  Span first;
  first.id = sink.next_span_id();
  first.name = StrId("epoch_marker_string");
  first.tracer = StrId("epoch_tracer");
  first.begin = 0;
  first.end = 1;
  sink.publish(first);

  Socket conn_a = accept_within(listener);
  ASSERT_TRUE(conn_a.valid());
  std::string a_bytes;
  ASSERT_TRUE(read_until_contains(conn_a, a_bytes, "epoch_marker_string"));
  ASSERT_GE(a_bytes.size(), sizeof(trace::wire::Header));
  EXPECT_EQ(a_bytes.compare(0, 4, "XSPB"), 0);
  conn_a.close();  // daemon dies mid-stream

  // Keep publishing until the sink notices and re-establishes.
  std::thread prodder([&] {
    while (sink.reconnects() == 0) {
      Span filler;
      filler.id = sink.next_span_id();
      filler.name = StrId("epoch_filler");
      filler.tracer = StrId("epoch_tracer");
      filler.begin = 2;
      filler.end = 3;
      sink.publish(filler);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Socket conn_b = accept_within(listener, 10000);
  prodder.join();
  ASSERT_TRUE(conn_b.valid());
  EXPECT_EQ(sink.reconnects(), 1u);

  // One more filler after the reconnect, so connection B surely carries
  // a span that uses epoch_filler and epoch_tracer.
  Span last;
  last.id = sink.next_span_id();
  last.name = StrId("epoch_filler");
  last.tracer = StrId("epoch_tracer");
  last.begin = 4;
  last.end = 5;
  sink.publish(last);

  // Ack the close handshake so close() returns via the protocol, not the
  // timeout: consume to EOF (the footer) then close our end.
  std::string b_bytes;
  std::thread acker([&] {
    b_bytes = read_to_eof(conn_b);
    conn_b.close();
  });
  sink.close();
  acker.join();

  // The new connection is a complete stream on its own: fresh header and
  // a fresh delta epoch. It re-sends the strings its own spans use, even
  // the tracer connection A already carried, and nothing else: the
  // marker string, used only by A's span, stays off B.
  ASSERT_GE(b_bytes.size(), sizeof(trace::wire::Header));
  EXPECT_EQ(b_bytes.compare(0, 4, "XSPB"), 0);
  EXPECT_NE(b_bytes.find("epoch_tracer"), std::string::npos);
  EXPECT_NE(b_bytes.find("epoch_filler"), std::string::npos);
  EXPECT_EQ(b_bytes.find("epoch_marker_string"), std::string::npos)
      << "a reconnect sends only the strings the new stream's spans use";
}

TEST(RemoteSinkLifecycle, DaemonDeathLeavesProducerAliveWithAccountedDrops) {
  const Endpoint ep = uds_endpoint("col_death");
  CollectorOptions copts;
  copts.drain_timeout_ms = 100;
  auto collector = std::make_unique<RunningCollector>(ep, copts);

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 16;
  opts.max_outbox_spans = 128;  // small: drops surface quickly once dead
  opts.connect_timeout_ms = 100;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 50;
  opts.drain_timeout_ms = 200;
  trace::RemoteSink sink(ep, opts);

  publish_fleet_member(sink, 0, 100);
  sink.flush();
  ASSERT_TRUE(wait_until(
      [&] { return collector->service.stats().spans_ingested > 0; }))
      << "producer must be mid-stream before the daemon dies";

  collector.reset();  // daemon killed: connection cut, endpoint gone

  // The producer thread keeps publishing; the sink must absorb the death
  // without blocking or throwing, and account every span it sheds.
  std::size_t extra = 0;
  while (sink.spans_dropped() == 0 && extra < 100000) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("death_op");
    s.tracer = StrId("death_tracer");
    s.begin = 0;
    s.end = 1;
    sink.publish(s);
    ++extra;
  }
  EXPECT_GT(sink.spans_dropped(), 0u)
      << "a dead daemon must surface as accounted drops, not silence";

  sink.close();  // must not wedge against the unreachable endpoint
  EXPECT_EQ(sink.spans_published(), 100u + extra);
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped(), sink.spans_published())
      << "every span ends up either sent or accounted dropped";
}

// --- heartbeats: producer health at the daemon ------------------------------

std::string heartbeat_frame(const trace::wire::Heartbeat& hb) {
  std::string payload;
  put_pod(payload, hb);
  return frame(trace::wire::FrameType::kHeartbeat, payload);
}

/// One full scrape against the daemon's metrics endpoint: raw HTTP/1.0
/// exchange, returns the response body (empty on any failure).
std::string scrape_metrics(const Endpoint& ep) {
  Socket s = try_connect(ep, 1000);
  if (!s.valid()) return {};
  if (!send_all(s, "GET /metrics HTTP/1.0\r\n\r\n")) return {};
  const std::string resp = read_to_eof(s);
  const std::size_t split = resp.find("\r\n\r\n");
  if (split == std::string::npos) return {};
  if (resp.compare(0, 15, "HTTP/1.0 200 OK") != 0) return {};
  return resp.substr(split + 4);
}

TEST(CollectorHeartbeat, HeartbeatIngestExposesPerProducerSeriesAndStaleness) {
  const Endpoint ep = uds_endpoint("col_hb");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  copts.heartbeat_stale_ms = 150;
  RunningCollector collector(ep, copts);
  ASSERT_NE(collector.service.metrics_endpoint(), nullptr);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A v3 producer announces itself with a heartbeat carrying its counters.
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  trace::wire::Heartbeat hb{};
  hb.sequence = 1;
  hb.spans_published = 500;
  hb.spans_sent = 450;
  hb.spans_dropped = 40;
  hb.spans_shed = 10;
  hb.sampled_kept = 400;
  hb.sampled_dropped = 100;
  hb.reconnects = 2;
  hb.outbox_spans = 17;
  ASSERT_TRUE(send_all(producer, header_bytes() + heartbeat_frame(hb)));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen == 1; }));

  // Fresh heartbeat: the producer's own counters are on /metrics, labeled
  // by its connection, and it is not stale.
  std::string body = scrape_metrics(scrape_ep);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 500"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsp_producer_sent_spans_total{conn=\"1\"} 450"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_dropped_spans_total{conn=\"1\"} 40"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_shed_spans_total{conn=\"1\"} 10"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_reconnects_total{conn=\"1\"} 2"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_outbox_spans{conn=\"1\"} 17"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_heartbeat_sequence{conn=\"1\"} 1"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  // Heartbeats stop but the connection stays open: staleness flips.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 1"), std::string::npos)
      << "a silent producer must be flagged stale\n" << body;

  // A later heartbeat revives it — latest wins, staleness clears.
  hb.sequence = 2;
  hb.spans_published = 600;
  ASSERT_TRUE(send_all(producer, heartbeat_frame(hb)));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen == 2; }));
  body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 600"),
            std::string::npos);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
}

TEST(CollectorHeartbeat, ProducerWithoutHeartbeatGetsConnectionSeriesButNoHealthSeries) {
  const Endpoint ep = uds_endpoint("col_hb_none");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A producer streams a span but has not heartbeated yet, so it must get
  // per-connection transport series but no xsp_producer_* ones — absence,
  // not fabricated zeros (silence is not health data).
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  Span s;
  s.id = 1;
  s.name = StrId("quiet_op");
  s.tracer = StrId("quiet_tracer");
  s.begin = 0;
  s.end = 1;
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta,
                 delta_entry(s.name.raw(), "quiet_op") +
                     delta_entry(s.tracer.raw(), "quiet_tracer"));
  bytes += frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s}));
  ASSERT_TRUE(send_all(producer, bytes));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().spans_ingested == 1; }));

  const std::string body = scrape_metrics(scrape_ep);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("xsp_connection_spans_total{conn=\"1\"} 1"), std::string::npos);
  EXPECT_EQ(body.find("xsp_producer_"), std::string::npos)
      << "a producer without heartbeats must not get fabricated health series\n" << body;
  EXPECT_NE(body.find("xsp_ingested_spans_total 1"), std::string::npos);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();
}

TEST(CollectorHeartbeat, RemoteSinkHeartbeatsFlowEndToEnd) {
  const Endpoint ep = uds_endpoint("col_hb_e2e");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  trace::RemoteSinkOptions opts;
  opts.heartbeat_interval_ms = 30;
  trace::RemoteSink sink(ep, opts);
  publish_fleet_member(sink, 0, 50);
  sink.flush();
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen >= 2; }))
      << "a live RemoteSink must beacon on its configured cadence";

  const std::string body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 50"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  sink.close();
  collector.stop();
  EXPECT_GE(sink.heartbeats_sent(), 2u);
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
  // After the connection closes its per-producer series are gone from the
  // scrape state; the aggregate heartbeat counter is what persists.
  EXPECT_GE(collector.service.stats().heartbeats_seen, 2u);
}

// --- sampling admission & selective shedding ------------------------------

TEST(RemoteSinkSampling, PublishAdmissionHoldsTheInvariant) {
  const Endpoint ep = uds_endpoint("col_sample");
  RunningCollector collector(ep);

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 32;
  trace::RemoteSink sink(ep, opts);
  trace::SamplerOptions sopts;
  sopts.rate = 0.25;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));

  constexpr std::size_t kSpans = 4000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("sampled_op");
    s.tracer = StrId("sampled_tracer");
    s.begin = static_cast<TimePoint>(i * 10);
    s.end = s.begin + 7;
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();

  EXPECT_EQ(sink.spans_published(), kSpans);
  EXPECT_GT(sink.spans_sampled_dropped(), 0u);
  EXPECT_GT(sink.spans_sampled_kept(), 0u);
  EXPECT_EQ(sink.spans_sampled_kept() + sink.spans_sampled_dropped(), kSpans)
      << "every publish lands in exactly one admission bucket";
  // The close() invariant with sampling: sampled-out spans are their own
  // bucket, disjoint from congestion/disconnect drops.
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped() + sink.spans_sampled_dropped(),
            sink.spans_published());
  // Only admitted spans reached the daemon.
  EXPECT_EQ(collector.service.stats().spans_ingested, sink.spans_sent());
}

TEST(RemoteSinkSampling, BackpressureShedsSelectivelyBeforeBlindDrops) {
  // No daemon at the endpoint: the outbox fills, and with a sampler
  // attached the sink must shed low-value spans selectively (counted in
  // spans_shed) rather than only dropping whole batches blind.
  const Endpoint ep = uds_endpoint("col_shed_none");
  trace::RemoteSinkOptions opts;
  opts.batch_spans = 16;
  opts.max_outbox_spans = 64;
  opts.connect_timeout_ms = 50;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 50;
  opts.drain_timeout_ms = 100;
  trace::RemoteSink sink(ep, opts);
  trace::SamplerOptions sopts;
  sopts.rate = 1.0;  // admit everything; shedding is the pressure path
  sopts.tail_keep_ns = 1000;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));

  constexpr std::size_t kSpans = 20000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("shed_op");
    s.tracer = StrId("shed_tracer");
    s.begin = 0;
    s.end = i % 100 == 0 ? 2000 : 10;  // a 1% tail the shed must keep
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();

  EXPECT_EQ(sink.spans_published(), kSpans);
  EXPECT_GT(sink.spans_shed(), 0u) << "pressure must shed selectively with a sampler";
  EXPECT_LE(sink.spans_shed(), sink.spans_dropped())
      << "sheds are an of-which breakdown of total drops";
  EXPECT_EQ(sink.spans_sampled_dropped(), 0u) << "rate 1.0 rejects nothing at admission";
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped(), sink.spans_published());
}

// --- the telemetry tables drive /metrics ------------------------------------

/// One metric family as a scrape exposes it: its `# TYPE` lines and its
/// samples (value of the last one seen).
struct ScrapedFamily {
  std::vector<std::string> types;
  int samples = 0;
  double value = 0;
};

std::map<std::string, ScrapedFamily> scraped_families(const std::string& body) {
  std::map<std::string, ScrapedFamily> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    constexpr std::string_view kType = "# TYPE ";
    if (line.substr(0, kType.size()) == kType) {
      const std::string_view rest = line.substr(kType.size());
      const std::size_t sp = rest.find(' ');
      out[std::string(rest.substr(0, sp))].types.emplace_back(rest.substr(sp + 1));
      continue;
    }
    metrics::ExpositionSample sample;
    if (!metrics::parse_exposition_line(line, sample)) continue;
    ScrapedFamily& fam = out[std::string(sample.name)];
    ++fam.samples;
    fam.value = sample.value;
  }
  return out;
}

const char* type_name(metrics::Kind kind) {
  return kind == metrics::Kind::kCounter ? "counter" : "gauge";
}

TEST(CollectorMetrics, EveryStatsAndHeartbeatFieldIsExposedOnce) {
  const Endpoint ep = uds_endpoint("col_tables");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A sampling producer, so the admission counters are non-zero too.
  trace::RemoteSinkOptions opts;
  opts.heartbeat_interval_ms = 40;
  trace::RemoteSink sink(ep, opts);
  trace::SamplerOptions sopts;
  sopts.rate = 0.5;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));
  publish_fleet_member(sink, 0, 300);
  sink.flush();
  ASSERT_GT(sink.spans_sampled_dropped(), 0u);
  ASSERT_TRUE(wait_until([&] {
    return sink.spans_sent() == sink.spans_sampled_kept() &&
           collector.service.stats().spans_ingested == sink.spans_sent();
  }));
  // A heartbeat in flight may predate the last send; two more arrivals
  // guarantee the latest one carries the final counters.
  const std::uint64_t beats = collector.service.stats().heartbeats_seen;
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen >= beats + 2; }));

  // Heartbeats keep arriving, so retry until no frame landed during the
  // scrape; then the scrape must match stats() taken right after it.
  std::string body;
  CollectorStats stats;
  for (int attempt = 0; attempt < 20; ++attempt) {
    const std::uint64_t frames = collector.service.stats().frames_parsed;
    body = scrape_metrics(scrape_ep);
    stats = collector.service.stats();
    if (stats.frames_parsed == frames) break;
  }
  ASSERT_FALSE(body.empty());
  const auto families = scraped_families(body);

  for (const CollectorStatsField& f : kCollectorStatsFields) {
    SCOPED_TRACE(std::string(f.metric));
    const auto it = families.find(std::string(f.metric));
    ASSERT_NE(it, families.end()) << body;
    EXPECT_EQ(it->second.types, std::vector<std::string>{type_name(f.kind)});
    EXPECT_EQ(it->second.samples, 1);
    EXPECT_EQ(it->second.value, static_cast<double>(stats.*f.member));
  }

  // One connection that never reconnected: its heartbeat sequence is the
  // collector's heartbeat count, the rest are the sink's own counters.
  trace::wire::Heartbeat want{};
  want.sequence = stats.heartbeats_seen;
  want.spans_published = sink.spans_published();
  want.spans_sent = sink.spans_sent();
  want.spans_dropped = sink.spans_dropped();
  want.spans_shed = sink.spans_shed();
  want.sampled_kept = sink.spans_sampled_kept();
  want.sampled_dropped = sink.spans_sampled_dropped();
  want.reconnects = sink.reconnects();
  want.outbox_spans = sink.outbox_spans();
  for (const trace::wire::HeartbeatField& f : trace::wire::kHeartbeatFields) {
    SCOPED_TRACE(std::string(f.name));
    const auto it = families.find(std::string(f.name));
    ASSERT_NE(it, families.end()) << body;
    EXPECT_EQ(it->second.types, std::vector<std::string>{type_name(f.kind)});
    EXPECT_EQ(it->second.samples, 1);
    EXPECT_EQ(it->second.value, static_cast<double>(want.*f.member));
  }

  sink.close();
  collector.stop();
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
}

}  // namespace
}  // namespace xsp::net
