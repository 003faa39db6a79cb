// The two streaming workloads, fleet_ingest and live_tracing, and the span
// corpus they replay.
//
// Both are open loops: producers replay the zoo span corpus at a fixed
// aggregate rate, each span stamped with its due time (its begin field),
// so every latency is measured from when the span was due, not from when
// a stalled producer got round to sending it.
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <streambuf>
#include <thread>

#include "bench.hpp"
#include "placement.hpp"
#include "xsp/analysis/online.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace perfbench {
namespace {

using namespace xsp;
using trace::Span;
using trace::SpanBatches;

constexpr int kProducers = 2;
constexpr std::size_t kShards = 2;
/// Spans per second each producer lane sends: one zoo_profile worker
/// streaming its M/L/G run, which zoo_profile measures and prints as
/// mlg_spans_per_worker_s (85k-100k/s on a 4-core Xeon VM), at the top
/// of that range.
/// A Session inside profile() streams faster (the `corpus:` line prints
/// that rate), but a pipeline process also spends time on its other
/// levels and analyses.
constexpr double kLaneRate = 100'000;
/// The fixed aggregate rate of both streaming workloads.
constexpr double kFixedRate = kProducers * kLaneRate;
/// Lag limit of fleet_ingest's capacity ladder (p99, due time to drain).
constexpr double kLagLimitMs = 100;
/// Spans per timing block of the publish-cost metrics.
constexpr std::uint64_t kBlockSpans = 64;
/// Window over which the streaming metrics are taken; each is reported as
/// the median over a phase's whole windows, so a second in which another
/// tenant held the cores does not decide the run.
constexpr std::int64_t kWindowNs = 1'000'000'000;
/// Generator sleep between bursts.
constexpr std::int64_t kTickNs = 200'000;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return trace::Sampler::mix(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

/// Order-independent content hash of one span: every field a producer
/// sets and the wire must carry unchanged (ids are remapped by design).
std::uint64_t content_hash(const Span& s) {
  std::uint64_t h = mix(s.name.raw(), s.tracer.raw());
  h = mix(h, static_cast<std::uint64_t>(s.level) << 8 | static_cast<std::uint64_t>(s.kind));
  h = mix(h, static_cast<std::uint64_t>(s.begin));
  h = mix(h, static_cast<std::uint64_t>(s.end));
  for (const auto& e : s.tags) h = mix(h, std::uint64_t{e.key.raw()} << 32 | e.value.raw());
  for (const auto& e : s.metrics) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.value, sizeof bits);
    h = mix(mix(h, e.key.raw()), bits);
  }
  for (const auto& e : s.inline_tags) {
    h = mix(h, e.key.raw());
    for (char c : e.value()) h = mix(h, static_cast<unsigned char>(c));
  }
  return h;
}

/// How far two span counts that should agree are apart.
std::uint64_t gap(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

std::uint64_t span_count(const SpanBatches& batches) {
  std::uint64_t n = 0;
  for (const auto& b : batches) n += b.size();
  return n;
}

// ------------------------------------------------------------- corpus ----

/// Real zoo traffic to replay: the spans of a seeded subset of models
/// profiled at M/L/G, streamed as binary wire and read back.
struct Corpus {
  std::vector<Span> spans;
  std::uint64_t id_stride = 1;
  std::uint64_t corr_stride = 1;
  double tags_per_span = 0;
  double metrics_per_span = 0;
  Ns tail_keep_ns = 0;  ///< p99 span duration: the sampler's tail-keep bound
  /// Index of the first span of each Session::profile run in `spans`: the
  /// places where a profiled process closes one sink and opens the next.
  std::vector<std::size_t> run_starts;
  /// Spans one Session streamed per second of its profile() calls.
  double session_spans_per_s = 0;
};

Corpus build_corpus(const Args& args, Result& res) {
  // One model from each pair of neighbours in the zoo ordered by size, so
  // every seed replays a similar mix of small and large models, and the
  // corpus, and the set-up time that makes it, vary little with the seed.
  std::vector<std::pair<std::size_t, const models::ModelInfo*>> zoo;
  for (const auto& m : models::tensorflow_models()) zoo.emplace_back(m.build(1, true).layers.size(), &m);
  std::stable_sort(zoo.begin(), zoo.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t strata = zoo.size() / 2;
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
  const std::string path = args.run_dir + "/corpus-" + std::to_string(::getpid()) + ".xspb";
  Corpus c;
  std::int64_t profile_ns = 0;
  for (std::size_t i = 0; i < strata; ++i) {
    const std::size_t lo = i * zoo.size() / strata, hi = (i + 1) * zoo.size() / strata;
    const models::ModelInfo& m = *zoo[lo + rng() % (hi - lo)].second;
    // Batch 1, the online-inference case: how many spans a run streams
    // grows with the batch by an amount that differs from model to model,
    // so seeded batches would make the corpus size swing with the seed.
    constexpr std::int64_t batch = 1;
    profile::Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    auto opts = profile::ProfileOptions::full(false);
    opts.stream_export_path = path;
    opts.stream_export_format = trace::ExportFormat::kBinary;
    const framework::Graph graph = m.build(batch, true);
    const std::int64_t t0 = now_ns();
    const profile::RunTrace run = session.profile(graph, opts);
    profile_ns += now_ns() - t0;
    std::ifstream in(path, std::ios::binary);
    trace::BinaryReader reader(in);
    const SpanBatches batches = reader.read_all();
    res.check(reader.saw_footer() && reader.spans_read() == run.streamed_spans,
              "corpus stream of " + m.name + " does not read back whole");
    const std::uint64_t id_base = c.id_stride, corr_base = c.corr_stride;
    c.run_starts.push_back(c.spans.size());
    for (const auto& b : batches) {
      for (Span s : b) {
        s.id += id_base;
        if (s.parent != trace::kNoSpan) s.parent += id_base;
        if (s.correlation_id != 0) s.correlation_id += corr_base;
        c.id_stride = std::max(c.id_stride, s.id + 1);
        c.corr_stride = std::max(c.corr_stride, s.correlation_id + 1);
        c.spans.push_back(s);
      }
    }
  }
  std::remove(path.c_str());
  std::vector<double> durations;
  for (const Span& s : c.spans) {
    c.tags_per_span += static_cast<double>(s.tags.size() + s.inline_tags.size());
    c.metrics_per_span += static_cast<double>(s.metrics.size());
    durations.push_back(static_cast<double>(s.duration()));
  }
  const auto n = static_cast<double>(std::max<std::size_t>(c.spans.size(), 1));
  c.tags_per_span /= n;
  c.metrics_per_span /= n;
  c.tail_keep_ns = static_cast<Ns>(percentile(durations, 0.99));
  c.session_spans_per_s = static_cast<double>(c.spans.size()) / (static_cast<double>(profile_ns) / 1e9);
  res.check(!c.spans.empty(), "empty span corpus");
  return c;
}

void print_corpus(const Corpus& c) {
  std::printf("corpus: %zu spans from %zu Session runs (%.0f per run), one Session streamed "
              "%.0f spans/s\n",
              c.spans.size(), c.run_starts.size(),
              static_cast<double>(c.spans.size()) / static_cast<double>(c.run_starts.size()),
              c.session_spans_per_s);
}

/// Replayed span i of one producer lane: the corpus span with ids shifted
/// into a cycle-and-lane-unique range and timestamps re-based on its due
/// time.
Span replay(const Corpus& c, std::uint64_t lane, std::uint64_t i, std::int64_t due) {
  const Span& src = c.spans[i % c.spans.size()];
  const std::uint64_t cycle = (i / c.spans.size()) * kProducers + lane + 1;
  Span s = src;
  s.id = src.id + cycle * c.id_stride;
  if (src.parent != trace::kNoSpan) s.parent = src.parent + cycle * c.id_stride;
  if (src.correlation_id != 0) s.correlation_id = src.correlation_id + cycle * c.corr_stride;
  s.begin = due;
  s.end = due + src.duration();
  return s;
}

// ------------------------------------------------------------ pipeline ----

/// First subscriber on every shard: due-time lag of each drained span,
/// drained counts and (when armed) the content checksum.
class Tap {
 public:
  void operator()(std::size_t shard, const SpanBatches& batches) {
    const std::int64_t t = now_ns();
    Lane& l = lanes_[shard % kShards];
    std::lock_guard lk(l.mu);
    for (const auto& b : batches) {
      for (const Span& s : b) {
        if (hashing_) l.checksum += content_hash(s);
        if (++l.seen % kLagSampleEvery == 0) {
          l.samples.push_back({s.begin, static_cast<float>(static_cast<double>(t - s.begin) / 1e3)});
        }
      }
    }
    l.delivered.fetch_add(span_count(batches), std::memory_order_relaxed);
  }

  struct Sample {
    std::int64_t due;
    float lag_us;
  };
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const Lane& l : lanes_) n += l.delivered.load(std::memory_order_relaxed);
    return n;
  }
  /// Move out every lag sample recorded so far.
  std::vector<Sample> take() {
    std::vector<Sample> out;
    for (Lane& l : lanes_) {
      std::lock_guard lk(l.mu);
      out.insert(out.end(), l.samples.begin(), l.samples.end());
      l.samples.clear();
    }
    return out;
  }
  /// Arm or disarm the checksum; call between phases, when nothing drains.
  void set_hashing(bool on) { hashing_ = on; }
  [[nodiscard]] std::uint64_t checksum() {
    std::uint64_t sum = 0;
    for (Lane& l : lanes_) {
      std::lock_guard lk(l.mu);
      sum += l.checksum;
    }
    return sum;
  }

 private:
  /// One drained span in this many gives a lag sample: plenty for a
  /// window's p99 while keeping the benchmark's own memory out of the
  /// peak RSS it reports.
  static constexpr std::uint64_t kLagSampleEvery = 16;

  struct Lane {
    std::mutex mu;
    std::uint64_t seen = 0;
    std::vector<Sample> samples;
    std::uint64_t checksum = 0;
    std::atomic<std::uint64_t> delivered{0};
  };
  Lane lanes_[kShards];
  std::atomic<bool> hashing_{false};
};

/// The in-process half both workloads share: a 2-shard async
/// ShardedTraceServer with an OnlineAnalyzer observer and a BinaryWriter
/// re-export (kConsume) into a sink that copies, plus the lag tap.
class Pipeline {
 public:
  Pipeline(SpanRecorder& rec, std::shared_ptr<const trace::Sampler> sampler)
      : rec_(rec), analyzer_(analyzer_options()), server_(kShards, trace::PublishMode::kAsync) {
    if (sampler) {
      server_.set_sampler(sampler);
      analyzer_.set_sampler(sampler);
    }
    server_.add_drain_subscriber(
        trace::ShardedTraceServer::ShardDrainSubscriber(
            [this](std::size_t shard, const SpanBatches& b) { tap_(shard, b); }));
    server_.add_drain_subscriber(trace::ShardedTraceServer::ShardDrainSubscriber(
        [this](std::size_t shard, const SpanBatches& b) {
          Scoped s(rec_, "analysis.observe", 0, 0, span_count(b));
          analyzer_.observe_shard(shard, b);
        }));
    attach_writer(false);
  }
  ~Pipeline() { (void)detach_writer(); }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Start a fresh export stream; with `retain` its bytes are kept for
  /// decoding.
  void attach_writer(bool retain) {
    retain_ = retain;
    out_.clear();
    writer_ = std::make_unique<trace::BinaryWriter>([this](std::string_view chunk) {
      std::lock_guard lk(out_mu_);
      if (retain_) out_.append(chunk);
      else scratch_.assign(chunk);
    });
    writer_id_ = server_.add_drain_subscriber(
        trace::ShardedTraceServer::ShardDrainSubscriber(
            [this](std::size_t, const SpanBatches& b) {
              Scoped s(rec_, "trace.encode", 0, 0, span_count(b));
              writer_->write_batches(b);
            }),
        trace::DrainHandoff::kConsume);
  }
  /// Finish the export stream; returns its bytes if retained.
  std::string detach_writer() {
    if (!writer_) return {};
    server_.remove_drain_subscriber(writer_id_);
    writer_->finish();
    written_spans_ += writer_->spans_written();
    written_bytes_ += writer_->bytes_written();
    writer_.reset();
    std::lock_guard lk(out_mu_);
    return std::move(out_);
  }

  trace::ShardedTraceServer& server() { return server_; }
  analysis::OnlineAnalyzer& analyzer() { return analyzer_; }
  Tap& tap() { return tap_; }
  [[nodiscard]] std::uint64_t written_spans() const { return written_spans_; }
  [[nodiscard]] std::uint64_t written_bytes() const { return written_bytes_; }

 private:
  static analysis::OnlineAnalyzerOptions analyzer_options() {
    analysis::OnlineAnalyzerOptions o;
    o.shard_count = kShards;
    return o;
  }

  SpanRecorder& rec_;
  Tap tap_;
  analysis::OnlineAnalyzer analyzer_;
  std::mutex out_mu_;
  bool retain_ = false;
  std::string out_;
  std::string scratch_;
  std::unique_ptr<trace::BinaryWriter> writer_;
  trace::SubscriberId writer_id_ = 0;
  std::uint64_t written_spans_ = 0;
  std::uint64_t written_bytes_ = 0;
  /// Last, so it is destroyed first: its collector threads call into the
  /// members above until it is gone.
  trace::ShardedTraceServer server_;
};

/// Read-only streambuf over a string, so a retained stream decodes in
/// place.
struct ViewBuf : std::streambuf {
  explicit ViewBuf(std::string& s) { setg(s.data(), s.data(), s.data() + s.size()); }
};

/// Decode a retained export stream; returns the spans it holds.
std::uint64_t decoded_spans(std::string& bytes) {
  ViewBuf buf(bytes);
  std::istream in(&buf);
  trace::BinaryReader reader(in);
  trace::SpanBatch batch;
  std::uint64_t n = 0;
  while (reader.next_batch(batch)) n += batch.size();
  return reader.saw_footer() ? n : ~0ull;
}

// -------------------------------------------------------------- phases ----

/// What one open-loop phase measured.
struct PhaseOut {
  std::vector<double> lateness_ns;
  std::vector<double> block_ns_per_span;  ///< publish-call time, per block
  std::vector<double> lag_ms;             ///< due time to drain
  std::vector<double> lag_early_ms;       ///< lags due in the 2nd quarter
  std::vector<double> lag_late_ms;        ///< lags due in the last quarter
  std::uint64_t published = 0;
  std::int64_t wall_ns = 0;
  // Per whole window after the first: process CPU per published span and
  // the lag percentiles of the spans due in it.
  std::vector<double> win_cpu_ns_per_span;
  std::vector<double> win_lag_p50_ms;
  std::vector<double> win_lag_p95_ms;
  std::vector<double> win_lag_p99_ms;
};

/// One producer lane's share of a phase.
struct LaneStats {
  std::vector<double> lateness_ns;
  std::vector<double> block_ns_per_span;
  std::uint64_t published = 0;
};

/// Replay the corpus on one lane at the schedule's rate until `end_ns`.
/// publish_burst(spans) hands prepared spans to the layer under test and
/// returns the nanoseconds spent in its publish calls.
template <typename PublishBurst>
LaneStats run_lane(const Corpus& corpus, std::uint64_t lane, std::uint64_t& cursor,
                   const Schedule& sched, std::int64_t end_ns, PublishBurst&& publish_burst) {
  LaneStats st;
  std::vector<Span> burst;
  burst.reserve(256);
  std::int64_t block_ns = 0;
  std::uint64_t block_n = 0;
  const std::uint64_t first = cursor;
  std::uint64_t last = 0;
  st.lateness_ns = run_open_loop(
      sched, end_ns, kTickNs, now_ns,
      [](std::int64_t ns) { std::this_thread::sleep_for(std::chrono::nanoseconds(ns)); },
      [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; i += 256) {
          burst.clear();
          for (std::uint64_t j = i; j < std::min(hi, i + 256); ++j) {
            burst.push_back(replay(corpus, lane, first + j, sched.due(j)));
          }
          block_ns += publish_burst(burst);
          block_n += burst.size();
          st.published += burst.size();
          if (block_n >= kBlockSpans) {
            st.block_ns_per_span.push_back(static_cast<double>(block_ns) /
                                           static_cast<double>(block_n));
            block_ns = 0;
            block_n = 0;
          }
        }
        last = hi;
      });
  cursor = first + last;
  return st;
}

/// Run `kProducers` lanes at an aggregate `rate` for `seconds`; `publish`
/// is publish_burst for lane p, `side` runs on its own thread until the
/// phase ends (the /metrics reader or the dashboard).
template <typename Publish, typename Side>
PhaseOut run_phase(const Corpus& corpus, std::uint64_t* cursors, double rate, double seconds,
                   Publish&& publish, Side&& side) {
  PhaseOut out;
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> published{0};
  std::vector<LaneStats> stats(kProducers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      pin_to(p == 0 ? kLane0 : kLane1);
      const Schedule sched{start, rate / kProducers};
      stats[p] = run_lane(corpus, p, cursors[p], sched, end, [&](const std::vector<Span>& burst) {
        const std::int64_t ns = publish(p, burst);
        published.fetch_add(burst.size(), std::memory_order_relaxed);
        return ns;
      });
    });
  }
  std::thread side_thread([&] {
    pin_to(kDrain);
    side(end);
  });
  // CPU per span in each whole window after the first.
  std::int64_t mark_cpu = 0;
  std::uint64_t mark_spans = 0;
  for (std::int64_t w = start + kWindowNs; w <= end; w += kWindowNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(std::chrono::nanoseconds(w)));
    const std::int64_t cpu = process_cpu_ns();
    const std::uint64_t spans = published.load(std::memory_order_relaxed);
    if (mark_spans != 0 && spans > mark_spans) {
      out.win_cpu_ns_per_span.push_back(static_cast<double>(cpu - mark_cpu) /
                                        static_cast<double>(spans - mark_spans));
    }
    mark_cpu = cpu;
    mark_spans = spans;
  }
  for (auto& t : threads) t.join();
  side_thread.join();
  out.wall_ns = now_ns() - start;
  for (const auto& s : stats) {
    out.published += s.published;
    out.lateness_ns.insert(out.lateness_ns.end(), s.lateness_ns.begin(), s.lateness_ns.end());
    out.block_ns_per_span.insert(out.block_ns_per_span.end(), s.block_ns_per_span.begin(),
                                 s.block_ns_per_span.end());
  }
  return out;
}

/// Keep a phase's lag samples that were due after its first tenth and
/// before its last tenth (at most 100 ms), away from start-up and from the
/// final flush; the 2nd and 4th quarters also go to the growth test, and
/// each whole window after the first gets its own percentiles.
void sort_lags(const std::vector<Tap::Sample>& samples, std::int64_t start, std::int64_t end,
               PhaseOut& out) {
  const std::int64_t span = end - start;
  const std::int64_t warm = start + span / 10;
  const std::int64_t tail = end - std::min<std::int64_t>(span / 10, 100'000'000);
  std::vector<std::vector<double>> windows(static_cast<std::size_t>(span / kWindowNs));
  for (const auto& s : samples) {
    if (s.due < warm || s.due >= tail) continue;
    const double ms = s.lag_us / 1e3;
    out.lag_ms.push_back(ms);
    if (s.due >= start + span / 4 && s.due < start + span / 2) out.lag_early_ms.push_back(ms);
    if (s.due >= start + span * 3 / 4) out.lag_late_ms.push_back(ms);
    const auto w = static_cast<std::size_t>((s.due - start) / kWindowNs);
    if (w >= 1 && w < windows.size()) windows[w].push_back(ms);
  }
  for (auto& w : windows) {
    if (!has_tail(w.size(), 0.99)) continue;
    out.win_lag_p50_ms.push_back(percentile(w, 0.5));
    out.win_lag_p95_ms.push_back(percentile(w, 0.95));
    out.win_lag_p99_ms.push_back(percentile(w, 0.99));
  }
}

/// Wait until every span published so far is drained or accounted lost.
template <typename Lost>
void wait_drained(Pipeline& pipe, std::uint64_t expected, Lost&& lost) {
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (pipe.tap().delivered() + lost() < expected && now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pipe.server().flush();
  }
}

/// A capacity-ladder trial passes when no span was lost, the lag stayed
/// under the limit at p99, and the lag did not grow over the trial.
bool trial_passes(double rate, PhaseOut& p, std::uint64_t lost) {
  const char* why = nullptr;
  double p99 = 0, early = 0, late = 0;
  if (lost != 0) {
    why = "lost spans";
  } else if (!has_tail(p.lag_ms.size(), 0.99)) {
    why = "too few samples";
  } else {
    p99 = percentile(p.lag_ms, 0.99);
    early = percentile(p.lag_early_ms, 0.9);
    late = percentile(p.lag_late_ms, 0.9);
    if (p99 > kLagLimitMs) why = "lag p99 over limit";
    else if (late > 2 * early + 5) why = "lag grows";
  }
  std::printf("ladder: %.0f/s %s (lag p99 %.1f ms, p90 %.1f -> %.1f ms, lost %" PRIu64 ")\n",
              rate, why ? why : "pass", p99, early, late, lost);
  return why == nullptr;
}

/// Highest rung of the ladder base * 2^(k/8) that passes, found by
/// doubling and then bisecting until `deadline`; `trial(rate)` runs one
/// trial. The base rung is the fixed rate, which has already passed.
template <typename Trial>
double ladder_capacity(double base, std::int64_t deadline, Trial&& trial) {
  constexpr int kRungsPerOctave = 8;
  const auto rung = [base](int k) {
    return base * std::pow(2.0, static_cast<double>(k) / kRungsPerOctave);
  };
  int lo = 0;
  int hi = -1;
  for (int k = kRungsPerOctave; hi < 0 && now_ns() < deadline; k += kRungsPerOctave) {
    (trial(rung(k)) ? lo : hi) = k;
  }
  while (hi >= 0 && hi - lo > 1 && now_ns() < deadline) {
    const int mid = (lo + hi) / 2;
    (trial(rung(mid)) ? lo : hi) = mid;
  }
  return rung(lo);
}

double per_item_ns(const std::map<std::string, SelfTotals>& totals, const char* name) {
  const SelfTotals t = self_of(totals, name);
  return t.items ? t.self_ns / static_cast<double>(t.items) : 0;
}
double mean_ms(const std::map<std::string, SelfTotals>& totals, const char* name) {
  const SelfTotals t = self_of(totals, name);
  return t.count ? t.self_ns / 1e6 / static_cast<double>(t.count) : 0;
}

/// The fixed-rate metrics both streaming workloads report: medians over
/// whole windows of each window's lag percentiles and CPU per span. The
/// gated tail is p95, as on zoo_profile: at the fixed rate the p99 sits
/// where the batch-seal and collector-wake cycles of the two lanes happen
/// to line up, and swings with that from run to run.
void report_fixed(Result& res, PhaseOut& fixed, const char* lag_name) {
  res.check(fixed.win_lag_p99_ms.size() >= 3 && fixed.win_cpu_ns_per_span.size() >= 3,
            "too few whole windows at the fixed rate; raise --seconds");
  const double lag50 = median(fixed.win_lag_p50_ms);
  const double lag95 = median(fixed.win_lag_p95_ms);
  const double lag99 = median(fixed.win_lag_p99_ms);
  const double cpu = median(fixed.win_cpu_ns_per_span);
  res.set_e2e("latency_p50_ms", lag50);
  res.set_e2e("latency_tail_ms", lag95);
  res.set_e2e("cpu_ns_per_span", cpu);
  res.add_named(std::string(lag_name) + "_p50_ms", lag50, "ms");
  res.add_named(std::string(lag_name) + "_p95_ms", lag95, "ms");
  res.add_named(std::string(lag_name) + "_p99_ms", lag99, "ms");
  res.add_named("cpu_ns_per_span", cpu, "ns");
  res.add_named("producer_ns_per_span", median(fixed.block_ns_per_span), "ns");
  std::printf("fixed rate: %zu lag samples in %zu windows (p%.1f supported overall)\n",
              fixed.lag_ms.size(), fixed.win_lag_p99_ms.size(),
              100 * highest_supported_percentile(fixed.lag_ms.size()));
}

/// Per-layer metrics of a traced phase shared by both streaming workloads.
void report_traced(Result& res, SpanRecorder& rec, PhaseOut& traced, double untraced_cpu) {
  const auto totals = reduce_self_time(rec.spans());
  res.set_layer("trace.encode_ns_per_span", per_item_ns(totals, "trace.encode"));
  res.set_layer("analysis.observe_ns_per_span", per_item_ns(totals, "analysis.observe"));
  res.set_layer("gen.late_p99_us", percentile(traced.lateness_ns, 0.99) / 1e3);
  const double traced_cpu = median(traced.win_cpu_ns_per_span);
  res.set_layer("bench.trace_overhead_pct", (traced_cpu - untraced_cpu) / untraced_cpu * 100);
  res.set_layer("trace.remote_publish_ns_per_span", per_item_ns(totals, "trace.remote_publish"));
  res.set_layer("trace.remote_close_ms", mean_ms(totals, "trace.remote_close"));
  res.set_layer("net.scrape_ms", mean_ms(totals, "net.scrape"));
  res.set_layer("trace.publish_ns_per_span", per_item_ns(totals, "trace.publish"));
  res.set_layer("analysis.snapshot_us", mean_ms(totals, "analysis.snapshot") * 1e3);
}

// ------------------------------------------------------------ fleet ----

std::string http_get(const net::Endpoint& ep, const std::string& path) {
  net::Socket s = net::try_connect(ep, 1000);
  if (!s.valid()) return {};
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    std::size_t n = 0;
    const net::IoResult r = s.write_some(req.data() + off, req.size() - off, n);
    if (r == net::IoResult::kError || r == net::IoResult::kClosed) return {};
    if (r == net::IoResult::kWouldBlock && !s.wait_writable(1000)) return {};
    if (r == net::IoResult::kOk) off += n;
  }
  s.shutdown_write();
  std::string out;
  char buf[16384];
  for (;;) {
    std::size_t n = 0;
    const net::IoResult r = s.read_some(buf, sizeof buf, n);
    if (r == net::IoResult::kClosed) return out;
    if (r == net::IoResult::kError) return {};
    if (r == net::IoResult::kWouldBlock) {
      if (!s.wait_readable(1000)) return {};
      continue;
    }
    out.append(buf, n);
  }
}

/// The collector daemon in miniature: CollectorService on its own thread
/// over UDS, feeding the shared pipeline, with /metrics served from the
/// same poll loop.
class Daemon {
 public:
  Daemon(const Args& args, SpanRecorder& rec, int instance)
      : pipe_(rec, nullptr),
        ep_(net::Endpoint::parse("unix:" + socket_path(args, "ingest", instance))) {
    net::CollectorOptions opts;
    opts.metrics_endpoint = "unix:" + socket_path(args, "metrics", instance);
    service_ = std::make_unique<net::CollectorService>(ep_, pipe_.server(), opts);
    thread_ = std::thread([this] {
      pin_to(kCollectorLoop);
      service_->run();
    });
    pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_);
  }
  ~Daemon() {
    if (thread_.joinable()) (void)stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Stop the service and wait for its loop to end; returns milliseconds.
  double stop() {
    const std::int64_t t0 = now_ns();
    service_->stop();
    thread_.join();
    return static_cast<double>(now_ns() - t0) / 1e6;
  }
  /// CPU time of the thread running the collector loop.
  [[nodiscard]] std::int64_t loop_cpu_ns() const { return clock_ns(cpu_clock_); }

  Pipeline& pipe() { return pipe_; }
  net::CollectorService& service() { return *service_; }
  [[nodiscard]] const net::Endpoint& endpoint() const { return ep_; }

 private:
  static std::string socket_path(const Args& args, const char* what, int instance) {
    return args.run_dir + "/" + what + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(instance) + ".sock";
  }

  Pipeline pipe_;
  net::Endpoint ep_;
  std::unique_ptr<net::CollectorService> service_;
  clockid_t cpu_clock_{};
  std::thread thread_;
};

/// One producer connection and its accounting.
struct FleetLane {
  std::unique_ptr<trace::RemoteSink> sink;
  /// Corpus run the lane's next span belongs to, and the spans left in it.
  std::size_t run = 0;
  std::uint64_t left_in_run = 0;
  std::uint64_t checksum = 0;
  std::uint64_t outbox_max = 0;
  // Totals over closed sinks.
  std::uint64_t published = 0, sent = 0, dropped = 0, reconnects = 0, sinks = 0;
  std::uint64_t unaccounted = 0;  ///< spans neither sent nor dropped
  std::vector<std::string> bad;

  [[nodiscard]] std::uint64_t dropped_now() const { return dropped + sink->spans_dropped(); }

  void close_sink(SpanRecorder& rec) {
    {
      Scoped s(rec, "trace.remote_close");
      sink->close();
    }
    const std::uint64_t p = sink->spans_published(), se = sink->spans_sent(),
                        d = sink->spans_dropped(), sd = sink->spans_sampled_dropped();
    unaccounted += gap(p, se + d + sd);
    if (p != se + d + sd) {
      bad.push_back("sink accounting: published " + std::to_string(p) + " != sent " +
                    std::to_string(se) + " + dropped " + std::to_string(d) + " + sampled " +
                    std::to_string(sd));
    }
    published += p;
    sent += se;
    dropped += d;
    reconnects += sink->reconnects();
    ++sinks;
    sink.reset();
  }
};

}  // namespace

Result run_fleet_ingest(const Args& args, SpanRecorder& rec) {
  Result res;

  // Set-up, five times: corpus plus daemon stand-up; the last daemon
  // stays. Timed on the set-up thread's CPU clock, like every set-up here:
  // wall time on a shared host swings with other tenants' load.
  std::vector<double> setups;
  Corpus corpus;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 5; ++i) {
    daemon.reset();
    const std::int64_t t0 = thread_cpu_ns();
    Corpus c = build_corpus(args, res);
    {
      PinnedScope drain(kDrain);
      daemon = std::make_unique<Daemon>(args, rec, i);
    }
    setups.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e9);
    if (i > 0) res.check(c.spans.size() == corpus.spans.size(), "corpus differs across set-ups");
    corpus = std::move(c);
  }
  res.set_e2e("setup_s", median(setups));
  print_corpus(corpus);
  Pipeline& pipe = daemon->pipe();

  FleetLane lanes[kProducers];
  for (int p = 0; p < kProducers; ++p) {
    PinnedScope lane(p == 0 ? kLane0 : kLane1);
    lanes[p].sink = std::make_unique<trace::RemoteSink>(daemon->endpoint());
  }
  std::uint64_t cursors[kProducers] = {0, 0};
  const net::Endpoint metrics_ep = *daemon->service().metrics_endpoint();
  std::uint64_t scrape_failures = 0;
  const auto dropped_now = [&] { return lanes[0].dropped_now() + lanes[1].dropped_now(); };

  // Lane 0 replays the corpus as the process that profiled it would send
  // it: each Session::profile run opens its own sink, so the lane closes
  // its sink and opens a new one where one corpus run ends and the next
  // begins. Lane 1 keeps one sink, as a long-lived producer does.
  const auto run_length = [&](std::size_t run) {
    const auto& starts = corpus.run_starts;
    const std::size_t end = run + 1 < starts.size() ? starts[run + 1] : corpus.spans.size();
    return static_cast<std::uint64_t>(end - starts[run]);
  };
  lanes[0].left_in_run = run_length(0);
  const auto publish = [&](int p, const std::vector<Span>& burst, bool hashing) {
    FleetLane& lane = lanes[p];
    std::int64_t spent = 0;
    for (std::size_t i = 0; i < burst.size();) {
      const std::size_t n =
          p == 0 ? std::min<std::size_t>(burst.size() - i, lane.left_in_run) : burst.size() - i;
      const std::int64_t t0 = now_ns();
      {
        Scoped s(rec, "trace.remote_publish", 0, 0, n);
        for (std::size_t j = i; j < i + n; ++j) lane.sink->publish(burst[j]);
      }
      spent += now_ns() - t0;
      lane.outbox_max = std::max(lane.outbox_max, lane.sink->outbox_spans());
      i += n;
      if (p == 0 && (lane.left_in_run -= n) == 0) {
        lane.close_sink(rec);
        lane.sink = std::make_unique<trace::RemoteSink>(daemon->endpoint());
        lane.run = (lane.run + 1) % corpus.run_starts.size();
        lane.left_in_run = run_length(lane.run);
      }
    }
    if (hashing) {
      for (const Span& span : burst) lane.checksum += content_hash(span);
    }
    return spent;
  };
  // The /metrics reader, beside the producers on the same poll loop.
  const auto scraper = [&](std::int64_t end) {
    for (std::int64_t t = now_ns(); t < end; t = now_ns()) {
      std::string body;
      {
        Scoped s(rec, "net.scrape");
        body = http_get(metrics_ep, "/metrics");
      }
      if (body.compare(0, 15, "HTTP/1.0 200 OK") != 0) ++scrape_failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  const auto phase = [&](double rate, double seconds, bool hashing) {
    const std::uint64_t delivered0 = pipe.tap().delivered();
    const std::uint64_t dropped0 = dropped_now();
    const std::int64_t start = now_ns();
    PhaseOut out = run_phase(
        corpus, cursors, rate, seconds,
        [&](int p, const std::vector<Span>& burst) { return publish(p, burst, hashing); },
        scraper);
    for (auto& l : lanes) l.sink->flush();
    wait_drained(pipe, delivered0 + out.published, [&] { return dropped_now() - dropped0; });
    sort_lags(pipe.tap().take(), start, start + out.wall_ns, out);
    return out;
  };

  // All at the fixed rate: a check phase over which the content checksum
  // is compared, then the measured phase every latency and cost comes
  // from (the checksum is benchmark work, so it stays out of the figures),
  // then either the traced phase or the capacity ladder.
  pipe.tap().set_hashing(true);
  const PhaseOut checked = phase(kFixedRate, args.seconds * 0.25, true);
  pipe.tap().set_hashing(false);
  // A checksum that differs shows at least one span arrived altered.
  const bool same_content = lanes[0].checksum + lanes[1].checksum == pipe.tap().checksum();
  res.failed += same_content ? 0 : 1;
  res.check(same_content, "content checksum differs between producers and daemon");
  PhaseOut fixed = phase(kFixedRate, args.seconds * (args.trace ? 0.375 : 0.55), false);
  const std::uint64_t fixed_dropped = dropped_now();
  res.attempted += checked.published + fixed.published;
  res.failed += fixed_dropped;
  res.check(fixed_dropped == 0, "spans dropped at the fixed rate: " + std::to_string(fixed_dropped));
  report_fixed(res, fixed, "ingest_lag");
  res.set_e2e("peak_rss_mb", peak_rss_mb());

  if (args.trace) {
    rec.enable(true);
    const std::int64_t loop0 = daemon->loop_cpu_ns();
    PhaseOut traced = phase(kFixedRate, args.seconds * 0.375, false);
    const std::int64_t loop_cpu = daemon->loop_cpu_ns() - loop0;
    rec.enable(false);
    res.attempted += traced.published;
    res.failed += dropped_now() - fixed_dropped;
    res.check(dropped_now() == fixed_dropped, "spans dropped in the traced phase");
    report_traced(res, rec, traced, median(fixed.win_cpu_ns_per_span));
    res.set_layer("net.collector_cpu_share",
                  static_cast<double>(loop_cpu) / static_cast<double>(traced.wall_ns));
  } else {
    // The capacity ladder over the rest of the run, from the fixed rate.
    // Drops while probing past capacity are its signal, not failed
    // operations. Reported for reading, not gated: near capacity a trial's
    // verdict turns on scheduling hiccups of a few milliseconds.
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 0.2 * 1e9);
    const double cap = ladder_capacity(kFixedRate, deadline, [&](double rate) {
      const std::uint64_t d0 = dropped_now();
      PhaseOut t = phase(rate, 0.3, false);
      res.attempted += t.published;
      return trial_passes(rate, t, dropped_now() - d0);
    });
    res.add_named("ingest_capacity_spans_per_s", cap, "1/s");
  }

  // Teardown outside the timed window: close every sink, then stop.
  for (auto& l : lanes) {
    l.close_sink(rec);
    for (auto& b : l.bad) res.check(false, b);
  }
  const double stop_ms = daemon->stop();
  pipe.server().flush();
  const net::CollectorStats st = daemon->service().stats();
  const std::uint64_t sent = lanes[0].sent + lanes[1].sent;
  // Spans a sink lost track of, sent but not ingested, or ingested but
  // not drained, are lost: failed operations.
  res.failed += lanes[0].unaccounted + lanes[1].unaccounted + gap(sent, st.spans_ingested) +
                gap(st.spans_ingested, pipe.tap().delivered());
  res.check(st.spans_ingested == sent, "daemon ingested " + std::to_string(st.spans_ingested) +
                                           " spans, producers sent " + std::to_string(sent));
  res.check(st.connections_errored == 0, "collector connections errored");
  res.check(scrape_failures == 0, std::to_string(scrape_failures) + " /metrics scrapes failed");
  res.check(pipe.tap().delivered() == st.spans_ingested,
            "daemon drained fewer spans than it ingested");
  std::printf("fleet_ingest: %" PRIu64 " spans published over %" PRIu64 " sinks, %" PRIu64
              " dropped, %" PRIu64 " ingested, fixed rate %.0f/s\n",
              lanes[0].published + lanes[1].published, lanes[0].sinks + lanes[1].sinks,
              lanes[0].dropped + lanes[1].dropped, st.spans_ingested, kFixedRate);

  const auto ingested = static_cast<double>(std::max<std::uint64_t>(st.spans_ingested, 1));
  res.set_layer("trace.tags_per_span", corpus.tags_per_span);
  res.set_layer("trace.metrics_per_span", corpus.metrics_per_span);
  res.set_layer("trace.remote_outbox_max_spans",
                static_cast<double>(std::max(lanes[0].outbox_max, lanes[1].outbox_max)));
  res.set_layer("trace.remote_dropped", static_cast<double>(lanes[0].dropped + lanes[1].dropped));
  res.set_layer("trace.remote_reconnects",
                static_cast<double>(lanes[0].reconnects + lanes[1].reconnects));
  res.set_layer("net.bytes_per_span", static_cast<double>(st.bytes_received) / ingested);
  res.set_layer("net.frames_per_kspan", static_cast<double>(st.frames_parsed) * 1e3 / ingested);
  res.set_layer("net.strings_reinterned", static_cast<double>(st.strings_reinterned));
  res.set_layer("net.connections_errored", static_cast<double>(st.connections_errored));
  res.set_layer("net.stop_ms", stop_ms);
  (void)pipe.detach_writer();
  res.set_layer("trace.wire_bytes_per_span",
                static_cast<double>(pipe.written_bytes()) /
                    static_cast<double>(std::max<std::uint64_t>(pipe.written_spans(), 1)));
  return res;
}

Result run_live_tracing(const Args& args, SpanRecorder& rec) {
  Result res;

  // Set-up, five times, on the set-up thread's CPU clock: corpus, sampler
  // and the pipeline. The last pipeline stays.
  std::vector<double> setups;
  Corpus corpus;
  std::unique_ptr<Pipeline> pipe;
  for (int i = 0; i < 5; ++i) {
    pipe.reset();
    const std::int64_t t0 = thread_cpu_ns();
    Corpus c = build_corpus(args, res);
    trace::SamplerOptions so;
    so.rate = 0.25;
    so.tail_keep_ns = c.tail_keep_ns;
    so.seed = args.seed;
    PinnedScope drain(kDrain);
    pipe = std::make_unique<Pipeline>(rec, std::make_shared<const trace::Sampler>(so));
    setups.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e9);
    if (i > 0) res.check(c.spans.size() == corpus.spans.size(), "corpus differs across set-ups");
    corpus = std::move(c);
  }
  res.set_e2e("setup_s", median(setups));
  print_corpus(corpus);
  trace::ShardedTraceServer& server = pipe->server();

  std::uint64_t cursors[kProducers] = {0, 0};
  std::vector<double> snapshot_us;
  std::uint64_t snapshot_spans = 0;
  std::uint64_t live_slots = 0, slot_bytes = 0;
  const auto publish = [&](int, const std::vector<Span>& burst) {
    const std::int64_t t0 = now_ns();
    Scoped s(rec, "trace.publish", 0, 0, burst.size());
    for (const Span& span : burst) server.publish(span);
    return now_ns() - t0;
  };
  // The dashboard: snapshots at a fixed cadence while the writers run.
  const auto dashboard = [&](std::int64_t end) {
    for (std::int64_t t = now_ns(); t < end; t = now_ns()) {
      {
        Scoped s(rec, "analysis.snapshot");
        snapshot_spans = pipe->analyzer().snapshot().spans;
      }
      snapshot_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
      if (snapshot_us.size() % 500 == 0) {  // slot health, once a second
        live_slots = std::max<std::uint64_t>(live_slots, server.live_slot_count());
        slot_bytes = std::max(slot_bytes, server.approx_slot_bytes());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  // One fixed-rate phase; `retain` keeps its export stream and checks
  // that it decodes to the spans the sampler kept.
  const auto phase = [&](double seconds, bool retain) {
    if (retain) {
      (void)pipe->detach_writer();
      pipe->attach_writer(true);
    }
    const std::uint64_t kept0 = server.sampled_kept_count();
    const std::int64_t start = now_ns();
    PhaseOut out = run_phase(corpus, cursors, kFixedRate, seconds, publish, dashboard);
    server.flush();
    sort_lags(pipe->tap().take(), start, start + out.wall_ns, out);
    if (retain) {
      std::string stream = pipe->detach_writer();
      const std::uint64_t kept = server.sampled_kept_count() - kept0;
      const std::uint64_t decoded = decoded_spans(stream);
      res.failed += gap(decoded, kept);
      res.check(decoded == kept, "exported stream decodes to " + std::to_string(decoded) +
                                     " spans, " + std::to_string(kept) + " were kept");
      pipe->attach_writer(false);
    }
    return out;
  };

  // All at the fixed rate: the measured phase every figure comes from
  // (streaming into a copying sink only), then a check phase exported
  // into a retained stream that must decode to the spans kept in it, then
  // in a traced run the traced phase. The peak RSS is read before the
  // check phase, whose retained stream is the benchmark's memory.
  PhaseOut fixed = phase(args.seconds * (args.trace ? 0.375 : 0.75), false);
  res.set_e2e("peak_rss_mb", peak_rss_mb());
  const PhaseOut checked = phase(args.seconds * 0.25, true);
  std::uint64_t published_total = checked.published + fixed.published;
  res.attempted += published_total;
  res.check(has_tail(snapshot_us.size(), 0.99), "too few snapshots for p99");
  report_fixed(res, fixed, "drain_lag");
  res.add_named("snapshot_p99_us", percentile(snapshot_us, 0.99), "us");

  if (args.trace) {
    rec.enable(true);
    PhaseOut traced = phase(args.seconds * 0.375, false);
    rec.enable(false);
    published_total += traced.published;
    res.attempted += traced.published;
    report_traced(res, rec, traced, median(fixed.win_cpu_ns_per_span));
  }

  // Accounting over the whole run.
  server.flush();
  const std::uint64_t kept = server.sampled_kept_count();
  const std::uint64_t shed = server.sampled_dropped_count();
  const std::uint64_t analyzed = pipe->analyzer().snapshot().spans;
  const std::uint64_t drained = pipe->tap().delivered();
  // Spans lost between publish and the sampler's verdict, or after it
  // before the analyzer or the drain saw them, are failed operations.
  res.failed += gap(published_total, kept + shed) + std::max(gap(kept, analyzed), gap(kept, drained));
  res.check(published_total == kept + shed,
            "published " + std::to_string(published_total) + " != kept " + std::to_string(kept) +
                " + sampled_dropped " + std::to_string(shed));
  res.check(analyzed == kept, "the analyzer's span count differs from the kept count");
  res.check(drained == kept, "drained span count differs from the kept count");
  res.check(snapshot_spans <= kept, "a snapshot saw more spans than were kept");

  const auto loads = server.shard_loads();
  const auto [mn, mx] = std::minmax_element(loads.begin(), loads.end());
  res.set_layer("trace.sampled_keep_ratio",
                static_cast<double>(kept) / static_cast<double>(std::max<std::uint64_t>(published_total, 1)));
  res.set_layer("trace.shard_skew",
                static_cast<double>(*mx) / static_cast<double>(std::max<std::uint64_t>(*mn, 1)));
  res.set_layer("trace.live_slots", static_cast<double>(live_slots));
  res.set_layer("trace.slot_bytes", static_cast<double>(slot_bytes));
  res.set_layer("trace.tags_per_span", corpus.tags_per_span);
  res.set_layer("trace.metrics_per_span", corpus.metrics_per_span);
  (void)pipe->detach_writer();
  res.set_layer("trace.wire_bytes_per_span",
                static_cast<double>(pipe->written_bytes()) /
                    static_cast<double>(std::max<std::uint64_t>(pipe->written_spans(), 1)));
  std::printf("live_tracing: %" PRIu64 " spans published, %" PRIu64 " kept, fixed rate %.0f/s\n",
              published_total, kept, kFixedRate);
  return res;
}

}  // namespace perfbench
