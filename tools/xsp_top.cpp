// xsp_top — a top(1)-style live dashboard over a running profiling
// session, rendered from OnlineAnalyzer snapshots.
//
// A worker thread profiles a model repeatedly with
// ProfileOptions::live_stats enabled; the main thread periodically takes
// Session::live_snapshot() — thread-safe, mid-run — and renders a text
// dashboard: total/windowed span rates, GPU occupancy, latency
// percentiles, the hottest kernels and layer types, per-shard loads with
// an imbalance factor, StringTable growth, and producer-slot health
// (live/retired/pooled slots + resident bytes — the thread-exit
// reclamation signal). A final dashboard is
// always printed after the last run, so even `--runs 1 --interval-ms 0`
// produces a complete picture (what the CI smoke asserts on).
//
//   xsp_top --runs 5 --interval-ms 100
//   xsp_top --model MLPerf_MobileNet_v1 --batch 8 --shards 4 --level mlg
//
// Options:
//   --model NAME      model-zoo model (default MLPerf_ResNet50_v1.5)
//   --system NAME     simulated system (default Tesla_V100)
//   --batch N         batch size (default 1)
//   --level m|ml|mlg  profiling levels (default mlg)
//   --shards N        trace-server shards (default 2; 0 = per-core default)
//   --runs N          profiled evaluations to drive (default 5)
//   --interval-ms N   dashboard refresh period, wall-clock ms (default 200;
//                     0 = final dashboard only)
//   --window-ms N     sliding-stats window, simulated ms (default 100)
//   --stream FILE     also stream each run's spans to FILE as they drain
//                     (the dashboard gains an "export:" cost line fed by
//                     RunTrace::streamed_spans/streamed_bytes)
//   --stream-format chrome|spans|binary  document shape for --stream
//                     (default binary — the low-overhead wire format)
//   --sample R        head-sampling rate in (0, 1]: admit this fraction
//                     of spans at publish (default 1 = off); the
//                     "sampling:" line shows kept/dropped and the
//                     analyzer's rescaled span estimate
//   --tail-keep-us N  force-admit spans >= N us regardless of the
//                     sampling draw (latency outliers survive)
//   --top-k N         bound the live kernel table to N SpaceSaving rows
//                     (default 0 = exact)
//   --alert-p99-us N  register an edge-triggered alert that prints when
//                     the kernel p99 crosses N us (0 = off)
//
// Daemon mode — the fleet view, no local profiling at all:
//
//   xsp_top --daemon tcp://127.0.0.1:9464 --runs 5 --interval-ms 1000
//
//   --daemon URI      scrape GET /metrics on a running xsp_collectd's
//                     metrics endpoint and render every collector counter
//                     (net::kCollectorStatsFields) plus a per-producer
//                     health table: every wire heartbeat counter
//                     (trace::wire::kHeartbeatFields), heartbeat age and
//                     staleness.
//                     --runs scrapes, --interval-ms apart.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "xsp/analysis/online.hpp"
#include "xsp/metrics/exposition.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/report/table.hpp"
#include "xsp/sim/gpu_spec.hpp"

namespace {

using namespace xsp;

struct Options {
  std::string model = "MLPerf_ResNet50_v1.5";
  std::string system = "Tesla_V100";
  std::int64_t batch = 1;
  std::string level = "mlg";
  std::size_t shards = 2;
  std::int64_t runs = 5;
  std::int64_t interval_ms = 200;
  std::int64_t window_ms = 100;
  std::string stream;
  std::string stream_format = "binary";
  double sample = 1.0;
  std::int64_t tail_keep_us = 0;
  std::int64_t top_k = 0;
  std::int64_t alert_p99_us = 0;
  std::string daemon;
};

void print_usage() {
  std::fprintf(stderr,
               "usage: xsp_top [--model NAME] [--system NAME] [--batch N] [--level m|ml|mlg]\n"
               "               [--shards N] [--runs N] [--interval-ms N] [--window-ms N]\n"
               "               [--stream FILE] [--stream-format chrome|spans|binary]\n"
               "               [--sample R] [--tail-keep-us N] [--top-k N] [--alert-p99-us N]\n"
               "       xsp_top --daemon URI [--runs N] [--interval-ms N]\n");
}

bool parse_int(const char* s, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    std::int64_t n = 0;
    if (arg == "--model" && (v = next()) != nullptr) {
      opts.model = v;
    } else if (arg == "--system" && (v = next()) != nullptr) {
      opts.system = v;
    } else if (arg == "--batch" && (v = next()) != nullptr && parse_int(v, n) && n > 0) {
      opts.batch = n;
    } else if (arg == "--level" && (v = next()) != nullptr) {
      opts.level = v;
    } else if (arg == "--shards" && (v = next()) != nullptr && parse_int(v, n) && n >= 0) {
      opts.shards = static_cast<std::size_t>(n);
    } else if (arg == "--runs" && (v = next()) != nullptr && parse_int(v, n) && n > 0) {
      opts.runs = n;
    } else if (arg == "--interval-ms" && (v = next()) != nullptr && parse_int(v, n) && n >= 0) {
      opts.interval_ms = n;
    } else if (arg == "--window-ms" && (v = next()) != nullptr && parse_int(v, n) && n > 0) {
      opts.window_ms = n;
    } else if (arg == "--stream" && (v = next()) != nullptr) {
      opts.stream = v;
    } else if (arg == "--stream-format" && (v = next()) != nullptr) {
      opts.stream_format = v;
    } else if (arg == "--sample" && (v = next()) != nullptr && parse_double(v, opts.sample) &&
               opts.sample > 0 && opts.sample <= 1.0) {
      // validated inline
    } else if (arg == "--tail-keep-us" && (v = next()) != nullptr && parse_int(v, n) && n >= 0) {
      opts.tail_keep_us = n;
    } else if (arg == "--top-k" && (v = next()) != nullptr && parse_int(v, n) && n >= 0) {
      opts.top_k = n;
    } else if (arg == "--alert-p99-us" && (v = next()) != nullptr && parse_int(v, n) && n >= 0) {
      opts.alert_p99_us = n;
    } else if (arg == "--daemon" && (v = next()) != nullptr) {
      opts.daemon = v;
    } else if (v != nullptr) {
      std::fprintf(stderr, "xsp_top: bad value '%s' for %s\n", v, arg.c_str());
      return false;
    } else {
      std::fprintf(stderr, "xsp_top: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opts.level != "m" && opts.level != "ml" && opts.level != "mlg") {
    std::fprintf(stderr, "xsp_top: --level must be m, ml, or mlg\n");
    return false;
  }
  if (opts.stream_format != "chrome" && opts.stream_format != "spans" &&
      opts.stream_format != "binary") {
    std::fprintf(stderr, "xsp_top: --stream-format must be chrome, spans, or binary\n");
    return false;
  }
  return true;
}

std::string format_ns(Ns v) {
  char buf[48];
  if (v >= kNsPerMs) {
    std::snprintf(buf, sizeof buf, "%.3f ms", to_ms(v));
  } else if (v >= kNsPerUs) {
    std::snprintf(buf, sizeof buf, "%.3f us", to_us(v));
  } else {
    std::snprintf(buf, sizeof buf, "%" PRId64 " ns", v);
  }
  return buf;
}

std::string format_double(double v, const char* fmt = "%.2f") {
  char buf[48];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

/// Cumulative streaming-export cost across the worker's finished runs
/// (RunTrace::streamed_spans/streamed_bytes), published by the worker and
/// read by the dashboard thread.
struct ExportTelemetry {
  std::atomic<std::uint64_t> spans{0};
  std::atomic<std::uint64_t> bytes{0};
};

void render_dashboard(const Options& opts, const analysis::OnlineSnapshot& snap,
                      const profile::SlotTelemetry& slots, const ExportTelemetry& exported,
                      std::int64_t runs_done, bool final) {
  std::printf("--- xsp_top | %s @ batch %lld on %s | runs %lld/%lld%s ---\n", opts.model.c_str(),
              static_cast<long long>(opts.batch), opts.system.c_str(),
              static_cast<long long>(runs_done), static_cast<long long>(opts.runs),
              final ? " | final" : "");
  std::printf(
      "spans %" PRIu64 " (layer %" PRIu64 ", kernel %" PRIu64 ", memcpy %" PRIu64
      ") | window %.0fms: %.0f span/s, gpu busy %.1f%% | cumulative gpu %.1f%%\n",
      snap.spans, snap.layer_spans, snap.kernel_spans, snap.memcpy_spans, to_ms(snap.window),
      snap.window_spans_per_sec, snap.window_gpu_busy_pct, snap.gpu_pct);
  std::printf("latency p50/p95/p99: layer %s / %s / %s | kernel %s / %s / %s\n",
              format_ns(snap.layer_p50).c_str(), format_ns(snap.layer_p95).c_str(),
              format_ns(snap.layer_p99).c_str(), format_ns(snap.kernel_p50).c_str(),
              format_ns(snap.kernel_p95).c_str(), format_ns(snap.kernel_p99).c_str());

  std::printf("shard loads:");
  for (std::size_t i = 0; i < snap.shard_spans.size(); ++i) {
    std::printf(" [%zu] %" PRIu64, i, snap.shard_spans[i]);
  }
  std::printf(" | imbalance %.2fx | interned %" PRIu64 " strings ~%" PRIu64 " B\n",
              analysis::shard_imbalance(snap.shard_spans), snap.interned_strings,
              snap.interned_bytes);
  std::printf("slots: live %" PRIu64 ", retired %" PRIu64 ", pooled %" PRIu64 ", ~%" PRIu64
              " B\n",
              slots.live_slots, slots.retired_slots, slots.pooled_slots, slots.slot_bytes);
  // Bounded interning: the budget in force and how often intern() hit it.
  if (snap.strtab_budget_bytes > 0) {
    std::printf("strtab: ~%" PRIu64 " B / budget %" PRIu64 " B, rejected %" PRIu64 "\n",
                snap.interned_bytes, snap.strtab_budget_bytes, snap.rejected_interns);
  } else {
    std::printf("strtab: ~%" PRIu64 " B, unbounded, rejected %" PRIu64 "\n",
                snap.interned_bytes, snap.rejected_interns);
  }
  // Always emitted (the CI smoke greps for it): rate 1 with no sheds
  // renders as "off".
  if (snap.sampling_rate < 1.0 || snap.sampled_dropped > 0 || snap.kernel_row_limit > 0) {
    std::printf("sampling: rate %.3f | kept %" PRIu64 ", dropped %" PRIu64
                " | est spans %.0f (observed %" PRIu64 ")",
                snap.sampling_rate, snap.sampled_kept, snap.sampled_dropped, snap.est_spans,
                snap.spans);
    if (snap.kernel_row_limit > 0) {
      std::printf(" | top-k %zu kernels, %" PRIu64 " evictions", snap.kernel_row_limit,
                  snap.kernel_evictions);
    }
    std::printf("\n");
  } else {
    std::printf("sampling: off (rate 1.000, every span admitted)\n");
  }
  if (!opts.stream.empty()) {
    const std::uint64_t spans = exported.spans.load(std::memory_order_acquire);
    const std::uint64_t bytes = exported.bytes.load(std::memory_order_acquire);
    std::printf("export: %" PRIu64 " spans, %" PRIu64 " B (%s, %.1f B/span) -> %s\n", spans,
                bytes, opts.stream_format.c_str(),
                spans > 0 ? static_cast<double>(bytes) / static_cast<double>(spans) : 0.0,
                opts.stream.c_str());
  }

  const auto top_rows = [](const char* what, const std::vector<analysis::OnlineAggregate>& rows,
                           std::size_t k) {
    report::TextTable table({what, "count", "total", "mean", "min", "max", "MB"});
    for (std::size_t i = 0; i < rows.size() && i < k; ++i) {
      const auto& r = rows[i];
      table.add_row({r.key.str(), std::to_string(r.count), format_ns(r.total_ns),
                     format_ns(static_cast<Ns>(r.mean_ns())), format_ns(r.min_ns),
                     format_ns(r.max_ns), format_double(r.bytes / 1e6)});
    }
    if (table.rows() > 0) std::printf("%s", table.str().c_str());
  };
  top_rows("top kernels", snap.kernels, 5);
  top_rows("top layer types", snap.layer_types, 5);
  std::printf("\n");
  std::fflush(stdout);
}

// --- daemon mode: render the fleet from a /metrics scrape ----------------

/// One HTTP/1.0 GET: connect, send, read to EOF, return the body (empty +
/// `err` set on any failure — a daemon that vanished between scrapes is a
/// routine condition for a dashboard, not an exception).
std::string scrape_metrics(const net::Endpoint& ep, std::string& err) {
  err.clear();
  net::Socket sock = net::try_connect(ep, /*timeout_ms=*/1000, &err);
  if (!sock.valid()) return {};
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    std::size_t n = 0;
    const net::IoResult r = sock.write_some(req.data() + off, req.size() - off, n);
    if (r == net::IoResult::kOk) {
      off += n;
    } else if (r == net::IoResult::kWouldBlock) {
      if (!sock.wait_writable(1000)) {
        err = "timed out sending request";
        return {};
      }
    } else {
      err = "connection died sending request";
      return {};
    }
  }
  std::string resp;
  char chunk[16 * 1024];
  for (;;) {
    std::size_t n = 0;
    const net::IoResult r = sock.read_some(chunk, sizeof chunk, n);
    if (r == net::IoResult::kOk) {
      resp.append(chunk, n);
    } else if (r == net::IoResult::kWouldBlock) {
      if (!sock.wait_readable(2000)) {
        err = "timed out reading response";
        return {};
      }
    } else if (r == net::IoResult::kClosed) {
      break;
    } else {
      err = "connection died reading response";
      return {};
    }
  }
  const auto head_end = resp.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    err = "malformed HTTP response";
    return {};
  }
  // Status line: "HTTP/1.0 200 OK".
  const auto sp = resp.find(' ');
  if (sp == std::string::npos || resp.compare(sp + 1, 3, "200") != 0) {
    err = "non-200 response";
    return {};
  }
  return resp.substr(head_end + 4);
}

/// Values keyed by metric name, split into unlabeled scalars and the
/// per-connection series (`conn` label value -> field -> value).
struct FleetView {
  std::map<std::string, double> scalars;
  std::map<std::string, std::map<std::string, double>> per_conn;
};

FleetView parse_exposition(const std::string& body) {
  FleetView view;
  std::size_t pos = 0;
  while (pos < body.size()) {
    auto eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    // The shared parser handles the optional trailing timestamp and
    // quoted label values; comments and malformed lines report false.
    metrics::ExpositionSample sample;
    if (!metrics::parse_exposition_line(line, sample)) continue;
    if (sample.labels.empty()) {
      view.scalars[std::string(sample.name)] = sample.value;
      continue;
    }
    // Only the conn="..." label matters for the fleet table.
    const auto conn = metrics::label_value(sample.labels, "conn");
    if (!conn.has_value()) continue;
    view.per_conn[*conn][std::string(sample.name)] = sample.value;
  }
  return view;
}

/// Column header for a heartbeat series: its name without the
/// xsp_producer_ prefix and _total suffix ("published_spans").
std::string_view producer_column(std::string_view metric) {
  metric.remove_prefix(std::string_view("xsp_producer_").size());
  if (metric.ends_with("_total")) metric.remove_suffix(std::string_view("_total").size());
  return metric;
}

void render_fleet(const FleetView& view, std::int64_t scrape, std::int64_t total) {
  const auto value = [](const std::map<std::string, double>& values, std::string_view name) {
    const auto it = values.find(std::string(name));
    return it != values.end() ? it->second : 0.0;
  };
  std::printf("--- xsp_top --daemon | scrape %lld/%lld%s ---\n",
              static_cast<long long>(scrape), static_cast<long long>(total),
              scrape == total ? " | final" : "");
  std::printf("ingested %.0f spans\n", value(view.scalars, "xsp_ingested_spans_total"));
  // Every collector counter as key=value pairs, wrapped near 80 columns.
  std::string line = "collector:";
  for (const net::CollectorStatsField& f : net::kCollectorStatsFields) {
    if (line.size() > 72) {
      std::printf("%s\n", line.c_str());
      line = "          ";
    }
    line += ' ';
    line += f.key;
    line += '=';
    line += format_double(value(view.scalars, f.metric), "%.0f");
  }
  std::printf("%s\n", line.c_str());
  std::printf("strtab: ~%.0f B, rejected %.0f\n", value(view.scalars, "xsp_strtab_bytes"),
              value(view.scalars, "xsp_strtab_rejected_total"));
  if (!view.per_conn.empty()) {
    std::vector<std::string> header{"conn"};
    for (const trace::wire::HeartbeatField& f : trace::wire::kHeartbeatFields)
      header.emplace_back(producer_column(f.name));
    header.emplace_back("hb age");
    header.emplace_back("stale");
    report::TextTable table(header);
    for (const auto& [conn, fields] : view.per_conn) {
      // Connections without heartbeat series show "-", not zeros: silence
      // is not health data.
      const bool has_hb = fields.count("xsp_producer_heartbeat_age_seconds") > 0;
      std::vector<std::string> row{conn};
      for (const trace::wire::HeartbeatField& f : trace::wire::kHeartbeatFields)
        row.push_back(has_hb ? format_double(value(fields, f.name), "%.0f") : "-");
      row.push_back(has_hb ? format_double(value(fields, "xsp_producer_heartbeat_age_seconds"),
                                           "%.2fs")
                           : "-");
      row.push_back(!has_hb ? "-" : (value(fields, "xsp_producer_stale") > 0 ? "STALE" : "ok"));
      table.add_row(row);
    }
    std::printf("%s", table.str().c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

int run_daemon_mode(const Options& opts) {
  const net::Endpoint ep = net::Endpoint::parse(opts.daemon);
  std::int64_t ok_scrapes = 0;
  for (std::int64_t i = 1; i <= opts.runs; ++i) {
    std::string err;
    const std::string body = scrape_metrics(ep, err);
    if (!err.empty()) {
      std::fprintf(stderr, "xsp_top: scrape %lld failed: %s\n",
                   static_cast<long long>(i), err.c_str());
    } else {
      ++ok_scrapes;
      render_fleet(parse_exposition(body), i, opts.runs);
    }
    if (i < opts.runs && opts.interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
    }
  }
  std::printf("xsp_top: done (%lld/%lld scrapes)\n", static_cast<long long>(ok_scrapes),
              static_cast<long long>(opts.runs));
  std::fflush(stdout);
  return ok_scrapes > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    print_usage();
    return 2;
  }

  if (!opts.daemon.empty()) {
    try {
      return run_daemon_mode(opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "xsp_top: %s\n", e.what());
      return 1;
    }
  }

  const models::ModelInfo* model = models::find_tensorflow_model(opts.model);
  if (model == nullptr) {
    std::fprintf(stderr, "xsp_top: unknown model '%s'\n", opts.model.c_str());
    return 1;
  }

  profile::ProfileOptions popts;
  popts.layer_level = opts.level != "m";
  popts.gpu_level = opts.level == "mlg";
  popts.trace_shards = opts.shards;
  popts.live_stats = true;
  popts.live_stats_window = opts.window_ms * kNsPerMs;
  popts.sampling_rate = opts.sample;
  popts.sampling_tail_keep_ns = opts.tail_keep_us * kNsPerUs;
  popts.top_k_kernels = static_cast<std::size_t>(opts.top_k);
  if (!opts.stream.empty()) {
    popts.stream_export_path = opts.stream;
    popts.stream_export_format = opts.stream_format == "chrome" ? trace::ExportFormat::kChromeTrace
                                 : opts.stream_format == "spans" ? trace::ExportFormat::kSpanJson
                                                                  : trace::ExportFormat::kBinary;
  }

  try {
    profile::Session session(sim::system_by_name(opts.system), framework::FrameworkKind::kTFlow);
    const framework::Graph graph = model->build(opts.batch, /*decompose_bn=*/true);

    std::atomic<std::int64_t> runs_done{0};
    std::atomic<bool> failed{false};
    std::string failure;
    ExportTelemetry exported;
    // The worker owns the session for the duration; the main thread only
    // reads live_snapshot(), which is the documented cross-thread surface.
    std::thread worker([&] {
      try {
        for (std::int64_t i = 0; i < opts.runs; ++i) {
          const profile::RunTrace run = session.profile(graph, popts);
          exported.spans.fetch_add(run.streamed_spans, std::memory_order_release);
          exported.bytes.fetch_add(run.streamed_bytes, std::memory_order_release);
          runs_done.fetch_add(1, std::memory_order_release);
        }
      } catch (const std::exception& e) {
        failure = e.what();
        failed.store(true, std::memory_order_release);
      }
    });

    // Alerting: once the first live run has created the analyzer,
    // register an edge-triggered kernel-p99 rule and poll it at the
    // dashboard cadence — the serving-layer shape the alert API targets.
    std::shared_ptr<analysis::OnlineAnalyzer> analyzer;
    const auto ensure_alert = [&] {
      if (opts.alert_p99_us <= 0 || analyzer != nullptr) return;
      analyzer = session.live_analyzer();
      if (analyzer == nullptr) return;
      analysis::AlertRule rule;
      rule.name = "kernel_p99";
      rule.value = [](const analysis::OnlineSnapshot& s) {
        return static_cast<double>(s.kernel_p99);
      };
      rule.threshold = static_cast<double>(opts.alert_p99_us * kNsPerUs);
      rule.fire_above = true;
      analyzer->add_alert(std::move(rule), [](const analysis::AlertRule& r, double v,
                                              const analysis::OnlineSnapshot&) {
        std::printf("ALERT: %s = %s crossed %s\n", r.name.c_str(),
                    format_ns(static_cast<Ns>(v)).c_str(),
                    format_ns(static_cast<Ns>(r.threshold)).c_str());
      });
    };

    if (opts.interval_ms > 0) {
      while (runs_done.load(std::memory_order_acquire) < opts.runs &&
             !failed.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
        ensure_alert();
        if (analyzer != nullptr) analyzer->poll_alerts();
        render_dashboard(opts, session.live_snapshot(), session.slot_telemetry(), exported,
                         runs_done.load(std::memory_order_acquire), /*final=*/false);
      }
    }
    worker.join();
    ensure_alert();
    if (analyzer != nullptr) analyzer->poll_alerts();
    if (failed.load(std::memory_order_acquire)) {
      std::fprintf(stderr, "xsp_top: %s\n", failure.c_str());
      return 1;
    }
    render_dashboard(opts, session.live_snapshot(), session.slot_telemetry(), exported,
                     runs_done.load(std::memory_order_acquire),
                     /*final=*/true);
    std::printf("xsp_top: done (%lld runs, %" PRIu64 " spans observed)\n",
                static_cast<long long>(opts.runs), session.live_snapshot().spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xsp_top: %s\n", e.what());
    return 1;
  }
  return 0;
}
