// XSP profiling session: one evaluation of one model at one profiling
// level, producing one timeline trace.
//
// The session wires together the three tracers of the paper's GPU design
// (Section III-B):
//   1. model-level — the startSpan/finishSpan tracing API placed around
//      code regions of interest (pre-process, prediction, post-process);
//   2. layer-level — the framework profiler's records converted to spans
//      offline and parented onto the model-prediction span;
//   3. GPU-kernel-level — CUPTI callback records become launch spans and
//      CUPTI activity records become execution spans, joined by
//      correlation_id; metric values attach to the execution spans.
//
// No framework modification happens anywhere: the layer tracer consumes
// the profiler's *output records* and the GPU tracer consumes CUPTI
// records, exactly as the paper prescribes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "xsp/analysis/online.hpp"
#include "xsp/common/clock.hpp"
#include "xsp/cupti/cupti.hpp"
#include "xsp/framework/executor.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/sim/device.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
#include "xsp/trace/timeline.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/tracer.hpp"

namespace xsp::profile {

/// Which stack levels to profile. The paper's M, M/L and M/L/G runs.
struct ProfileOptions {
  bool model_level = true;
  bool layer_level = false;
  /// ML-library (cuDNN/cuBLAS call) level between layer and kernel —
  /// the paper's Section III-E extension.
  bool library_level = false;
  bool gpu_level = false;
  /// Collect the four GPU metrics of Section III-D3 (requires gpu_level;
  /// expensive: kernels are replayed per counter group).
  bool gpu_metrics = false;
  trace::PublishMode publish_mode = trace::PublishMode::kAsync;
  /// Trace-server shards to collect into. 1 (default) collects into a
  /// single server; 0 means one shard per hardware thread (capped); >1
  /// fans publication out across that many independent shards, merged at
  /// assembly. Sessions are single-threaded, so >1 only matters when the
  /// session's trace plumbing is shared with concurrent publishers — but
  /// any setting yields an identical assembled timeline.
  std::size_t trace_shards = 1;
  /// How publishers map to shards when trace_shards != 1.
  trace::ShardPolicy shard_policy = trace::ShardPolicy::kByThread;
  /// Deterministic timing jitter (fraction; 0 disables) + seed, for
  /// multi-run statistics.
  double timing_jitter = 0;
  std::uint64_t jitter_seed = 0;
  /// When non-empty, the run's spans are additionally streamed to this
  /// file *as they drain* from the trace server (a StreamingExporter
  /// attached as a drain subscriber on every shard), in publication form:
  /// raw spans, pre-assembly, launch/execution pairs unmerged. The
  /// in-memory timeline in RunTrace is unaffected. The file is finalized
  /// (footer + metadata) before profile() returns; if the run throws, the
  /// partial file is removed so a failed run never leaves a valid-looking
  /// export behind.
  std::string stream_export_path;
  /// Document shape for stream_export_path (span JSON carries a metadata
  /// footer with the run's dropped-annotation/shard telemetry).
  /// ExportFormat::kBinary selects the XSP binary wire format (wire.hpp):
  /// a trace::BinaryWriter drain subscriber memcpys sealed batches to the
  /// file instead of formatting JSON — the low-overhead shape for
  /// production streaming; decode with trace::BinaryReader or
  /// `trace_export --decode`.
  trace::ExportFormat stream_export_format = trace::ExportFormat::kChromeTrace;
  /// When non-empty, the run's spans are additionally forwarded to a
  /// collector daemon (xsp_collectd) at this endpoint URI — "unix:/path"
  /// or "tcp://host:port" — through a trace::RemoteSink attached as an
  /// observe-mode drain subscriber: raw publication spans ship over the
  /// binary wire as the shards drain, while the in-memory timeline is
  /// unaffected. The sink (and its connection) persists across profile()
  /// calls on one session — one wire stream per session, footer sent when
  /// the session dies or the endpoint changes. Unreachable daemons never
  /// fail the run: delivery is best-effort with bounded buffering, and
  /// losses surface in RunTrace::remote_dropped_spans, not as errors.
  std::string remote_endpoint;
  /// Maintain live online aggregates (analysis::OnlineAnalyzer) from the
  /// run's span stream: an observe-mode drain subscriber on every shard
  /// feeds per-layer-type/per-kernel aggregates, latency percentiles,
  /// sliding-window rates, and per-shard load counters — readable at any
  /// moment via Session::live_snapshot(), including mid-run from another
  /// thread (the xsp_top dashboard). The analyzer persists across
  /// profile() calls on one session, so aggregates accumulate over a
  /// service's lifetime; composes with stream_export_path (both are
  /// observers), and a span-JSON streamed export gains an "online"
  /// metadata footer section with the final aggregates.
  bool live_stats = false;
  /// Sliding window (simulated time) for the live span/s and GPU-busy
  /// stats; 0 keeps the analyzer default.
  Ns live_stats_window = 0;
  /// Head-sampling rate in (0, 1]: the fraction of spans admitted into
  /// the collection fleet (a trace::Sampler set on every shard). The
  /// decision is a deterministic hash of the correlation id, so a kept
  /// request keeps *all* of its spans across tracers and shards; 1.0
  /// (default) disables sampling entirely — the publish path is the
  /// pass-through fast path, within noise of an unsampled build.
  /// Sheds surface in RunTrace::sampled_dropped and, when live_stats is
  /// on, the analyzer rescales its rate/count estimates by the effective
  /// rate (Horvitz-Thompson), so dashboards stay calibrated.
  double sampling_rate = 1.0;
  /// Tail-keep escape hatch: spans at least this long are admitted
  /// regardless of the hash draw (0 disables). Latency outliers survive
  /// aggressive rates; such spans carry effective rate 1.0 so the
  /// rescaled estimates stay unbiased.
  Ns sampling_tail_keep_ns = 0;
  /// Seed for the sampling hash — distinct seeds sample distinct subsets
  /// at the same rate (multi-run variance estimation).
  std::uint64_t sampling_seed = 0;
  /// Bound the live analyzer's per-kernel table to this many rows via
  /// SpaceSaving top-k (0 = exact, unbounded). Applies when the analyzer
  /// is created — the first live_stats run on this session.
  std::size_t top_k_kernels = 0;
  /// Byte budget for the process-global StringTable (0 = unbounded).
  /// Applied at the start of the run via StringTable::set_budget_bytes:
  /// past the budget, intern() stops growing the table and returns the
  /// reserved "<interned-cap>" sentinel id instead, counting the miss in
  /// rejected_interns. The budget is process-global state — the last run
  /// to set a non-zero value wins, and it persists after the run (a
  /// service sets it once). High-cardinality values belong in inline
  /// tags (Tracer::tag_inline), which never touch the table at all.
  std::size_t strtab_budget_bytes = 0;

  [[nodiscard]] std::string level_string() const;  // "M", "M/L", "M/L/G"

  static ProfileOptions model_only() { return {}; }
  static ProfileOptions model_layer() {
    ProfileOptions o;
    o.layer_level = true;
    return o;
  }
  static ProfileOptions full(bool metrics = true) {
    ProfileOptions o;
    o.layer_level = true;
    o.gpu_level = true;
    o.gpu_metrics = metrics;
    return o;
  }
};

/// The result of one profiled evaluation, with the collection telemetry
/// (trace::TraceMeta) of the run it came from. The telemetry is sampled
/// at the end of the run: dropped_annotations, the slot counters and the
/// string-table counters from the fleet; sampled_kept/sampled_dropped
/// are this run's admissions (published == sampled_kept +
/// sampled_dropped; both 0 without a sampler); remote_dropped_spans and
/// remote_reconnects are cumulative per session, like the remote sink's
/// single wire stream.
struct RunTrace : trace::TraceMeta {
  ProfileOptions options;
  trace::Timeline timeline;
  /// Duration of the model-prediction span *in this run* (includes the
  /// overhead of whatever profilers were enabled below the model level).
  Ns model_latency = 0;
  /// Duration of the whole pipeline (pre-process + predict + post-process).
  Ns pipeline_latency = 0;
  /// Spans written to stream_export_path (0 when streaming was off). This
  /// counts *raw publication* spans, so with GPU tracing it exceeds
  /// timeline.size(): launch/execution pairs stream unmerged and are only
  /// joined at assembly.
  std::uint64_t streamed_spans = 0;
  /// Bytes written to stream_export_path (0 when streaming was off) — the
  /// export-cost figure that makes format overheads comparable: the same
  /// run streamed as span JSON vs binary differs by an order of magnitude
  /// here. Also surfaced in the span-JSON footer as "export_bytes" and in
  /// the binary footer frame.
  std::uint64_t streamed_bytes = 0;
  /// Spans handed to the remote sink over the session's lifetime (0 when
  /// ProfileOptions::remote_endpoint is empty).
  std::uint64_t remote_spans = 0;

  /// Export metadata for to_span_json(timeline, meta).
  [[nodiscard]] const trace::TraceMeta& trace_meta() const noexcept { return *this; }
};

/// Point-in-time producer-slot health of a session's collection fleet
/// (Session::slot_telemetry(); the xsp_top slot-health line).
struct SlotTelemetry {
  std::uint64_t live_slots = 0;
  std::uint64_t retired_slots = 0;
  std::uint64_t pooled_slots = 0;
  std::uint64_t slot_bytes = 0;
};

/// One evaluation environment: a system, a framework, and the tracing
/// plumbing. Sessions are single-threaded and cheap to construct; build a
/// fresh one per run for fully independent virtual timelines.
class Session {
 public:
  Session(const sim::GpuSpec& system, framework::FrameworkKind framework);

  /// The model-level tracing API (paper Section III-B, point 1). Spans
  /// started here are model-level; nesting is by explicit parent.
  trace::SpanId start_span(trace::StrId name, trace::SpanId parent = trace::kNoSpan);
  void finish_span(trace::SpanId id);

  /// Simulated CPU work inside user code (pre/post-processing bodies).
  void cpu_work(Ns duration) { clock_.advance(duration); }

  /// Profile one inference of `graph` end-to-end: input pre-processing,
  /// model prediction, output post-processing, with the levels requested.
  RunTrace profile(const framework::Graph& graph, const ProfileOptions& options);

  /// Point-in-time copy of the live online aggregates. Thread-safe and
  /// callable *during* a profile() run from another thread — the analyzer
  /// observes batches as the shards drain them, so the snapshot tracks
  /// publication, not run completion. Returns a default (all-zero)
  /// snapshot until a run with ProfileOptions::live_stats has started.
  [[nodiscard]] analysis::OnlineSnapshot live_snapshot() const;

  /// Forget accumulated live aggregates (the analyzer persists across
  /// runs; a service rolling its stats window calls this between epochs).
  void reset_live_stats();

  /// The live analyzer itself — nullptr until the first live_stats run
  /// has started. The surface for the analyzer APIs beyond snapshots:
  /// alert registration (add_alert/poll_alerts) from a serving layer or
  /// dashboard thread.
  [[nodiscard]] std::shared_ptr<analysis::OnlineAnalyzer> live_analyzer() const;

  /// Producer-slot health of the collection fleet right now. Thread-safe
  /// and callable mid-run from another thread (the xsp_top dashboard
  /// pairs it with live_snapshot()); all zeros before the first run.
  [[nodiscard]] SlotTelemetry slot_telemetry() const;

  /// Register the session's collection machinery with a self-metrics
  /// registry: every fleet shard's series (TraceServer::bind_metrics,
  /// labeled by shard under `labels`) and, when remote forwarding is
  /// active, the RemoteSink's health series. profile() rebinds
  /// automatically whenever it reconfigures the fleet or reconnects the
  /// sink, so the registry tracks the *current* fleet across runs. Pass
  /// nullptr to stop binding (existing series unregister when their
  /// components die). The registry must outlive the session or the next
  /// unbind, whichever comes first. Zero publish-hot-path cost — see
  /// TraceServer::bind_metrics.
  void bind_metrics(metrics::Registry* registry, metrics::Labels labels = {});

  [[nodiscard]] sim::GpuDevice& device() noexcept { return device_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] framework::Executor& executor() noexcept { return executor_; }

  /// Per-image costs of the (simulated) pre-/post-processing steps.
  static constexpr Ns kPreprocessPerImage = us(120);
  static constexpr Ns kPostprocessPerImage = us(20);

 private:
  SimClock clock_;
  sim::GpuDevice device_;
  framework::Executor executor_;
  /// Collection fleet. server_mu_ guards the *pointer* (profile() may
  /// replace a reconfigured fleet) so slot_telemetry() can read from a
  /// dashboard thread; calls INTO a live fleet are themselves
  /// thread-safe and need no session-level lock.
  mutable std::mutex server_mu_;
  std::unique_ptr<trace::ShardedTraceServer> server_;
  /// Live-stats analyzer (ProfileOptions::live_stats). Created on the
  /// first live run and kept for the session's lifetime (reconfigured in
  /// place on shard/window changes, never silently replaced — lifetime
  /// aggregates survive); shared_ptr behind a mutex so live_snapshot()
  /// from a dashboard thread races safely with that first creation.
  mutable std::mutex online_mu_;
  std::shared_ptr<analysis::OnlineAnalyzer> online_;
  /// Remote forwarding (ProfileOptions::remote_endpoint): one RemoteSink
  /// — one wire stream, one collector connection — for the session's
  /// lifetime. Destroyed (closing the stream: outbox drained, footer
  /// sent) with the session, or replaced when a run names a different
  /// endpoint.
  std::unique_ptr<trace::RemoteSink> remote_;
  std::string remote_uri_;
  /// Admission policy built from ProfileOptions::sampling_* (nullptr when
  /// rate is 1.0 and no tail-keep): shared by the fleet, the remote sink,
  /// and the live analyzer so one decision governs admission, shedding,
  /// and rescaling. Rebuilt only when the options change.
  std::shared_ptr<const trace::Sampler> sampler_;
  /// Session-lifetime admission totals (the analyzer accumulates across
  /// runs, so it gets these, not per-run deltas).
  std::uint64_t sampled_kept_total_ = 0;
  std::uint64_t sampled_dropped_total_ = 0;
  std::unique_ptr<trace::Tracer> model_tracer_;
  std::unique_ptr<trace::Tracer> layer_tracer_;
  std::unique_ptr<trace::Tracer> library_tracer_;
  std::unique_ptr<trace::Tracer> gpu_tracer_;
  /// Self-metrics binding (bind_metrics): applied to the live fleet and
  /// sink, and re-applied by profile() after reconfiguration.
  metrics::Registry* metrics_registry_ = nullptr;
  metrics::Labels metrics_labels_;
  /// Bounded-interning series (xsp_strtab_*): callback series over the
  /// process-global StringTable, registered once per bind_metrics call —
  /// unlike the fleet series they never need rebinding on fleet swaps.
  std::vector<metrics::CallbackHandle> strtab_series_;
};

}  // namespace xsp::profile
