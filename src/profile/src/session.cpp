#include "xsp/profile/session.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "xsp/net/endpoint.hpp"
#include "xsp/profile/span_keys.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::profile {

namespace {

const SpanKeys& keys() { return span_keys(); }

// Keep the span's fidelity signal honest: a capacity-rejected annotation
// must increment dropped_annotations here exactly as Tracer::add_tag does.
void set_tag(trace::Span& s, trace::StrId key, trace::StrId value) {
  if (!s.tags.set(key, value)) s.note_dropped();
}

/// Inline variant for dynamically composed, high-cardinality values
/// (grid/block dims): the bytes ride in the span, never the StringTable.
void set_inline_tag(trace::Span& s, trace::StrId key, std::string_view value) {
  if (!s.inline_tags.set(key, value)) s.note_dropped();
}

void set_metric(trace::Span& s, trace::StrId key, double value) {
  if (!s.metrics.set(key, value)) s.note_dropped();
}

}  // namespace

std::string ProfileOptions::level_string() const {
  std::string s = model_level ? "M" : "";
  if (layer_level) s += s.empty() ? "L" : "/L";
  if (library_level) s += s.empty() ? "Lib" : "/Lib";
  if (gpu_level) s += s.empty() ? "G" : "/G";
  return s;
}

Session::Session(const sim::GpuSpec& system, framework::FrameworkKind framework)
    : device_(system, clock_), executor_(framework, device_) {}

analysis::OnlineSnapshot Session::live_snapshot() const {
  std::shared_ptr<analysis::OnlineAnalyzer> online;
  {
    std::lock_guard lk(online_mu_);
    online = online_;
  }
  return online != nullptr ? online->snapshot() : analysis::OnlineSnapshot{};
}

std::shared_ptr<analysis::OnlineAnalyzer> Session::live_analyzer() const {
  std::lock_guard lk(online_mu_);
  return online_;
}

void Session::reset_live_stats() {
  std::shared_ptr<analysis::OnlineAnalyzer> online;
  {
    std::lock_guard lk(online_mu_);
    online = online_;
  }
  if (online != nullptr) online->reset();
}

SlotTelemetry Session::slot_telemetry() const {
  // Hold server_mu_ across the reads so profile() cannot replace (and
  // destroy) the fleet mid-query; the per-shard counters themselves are
  // internally synchronized.
  std::lock_guard lk(server_mu_);
  if (server_ == nullptr) return {};
  SlotTelemetry t;
  t.live_slots = server_->live_slot_count();
  t.retired_slots = server_->retired_slot_count();
  t.pooled_slots = server_->pooled_slot_count();
  t.slot_bytes = server_->approx_slot_bytes();
  return t;
}

void Session::bind_metrics(metrics::Registry* registry, metrics::Labels labels) {
  metrics_registry_ = registry;
  metrics_labels_ = std::move(labels);
  strtab_series_.clear();
  if (metrics_registry_ == nullptr) return;
  // Bind whatever exists now; profile() re-applies the binding whenever
  // it swaps the fleet or the sink (the dying component released its
  // series first, so names never collide).
  std::lock_guard lk(server_mu_);
  if (server_ != nullptr) server_->bind_metrics(*metrics_registry_, metrics_labels_);
  if (remote_ != nullptr) remote_->bind_metrics(*metrics_registry_, metrics_labels_);
  // Bounded-interning health: the process-global table's footprint and its
  // lifetime rejection count. Samples are two relaxed atomic loads (plus
  // sharded shared locks for approx_bytes), scrape-time only.
  strtab_series_.push_back(metrics_registry_->callback(
      "xsp_strtab_bytes", "Approximate resident bytes in the global string table",
      metrics::Kind::kGauge, metrics_labels_,
      [] { return static_cast<double>(common::StringTable::global().approx_bytes()); }));
  strtab_series_.push_back(metrics_registry_->callback(
      "xsp_strtab_rejected_total",
      "Interns rejected by the string-table byte budget or slot ceiling",
      metrics::Kind::kCounter, metrics_labels_,
      [] { return static_cast<double>(common::StringTable::global().rejected_interns()); }));
}

trace::SpanId Session::start_span(trace::StrId name, trace::SpanId parent) {
  if (!model_tracer_) return trace::kNoSpan;
  return model_tracer_->start_span(name, clock_.now(), parent);
}

void Session::finish_span(trace::SpanId id) {
  if (model_tracer_) model_tracer_->finish_span(id, clock_.now());
}

RunTrace Session::profile(const framework::Graph& graph, const ProfileOptions& options) {
  // Bounded interning: arm the budget before anything in this run interns.
  // 0 leaves the table's current setting alone (the budget is process
  // state, not per-run state — see ProfileOptions::strtab_budget_bytes).
  if (options.strtab_budget_bytes != 0) {
    common::StringTable::global().set_budget_bytes(options.strtab_budget_bytes);
  }
  // One (possibly sharded) collection fleet, one fresh tracer per
  // profiler per run. trace_shards == 1 is the plain single-server shape;
  // 0 lets the fleet size itself to the hardware. The fleet is reused
  // across runs when its configuration matches — take_batches() left it
  // empty, and reuse is what lets the recycled batch buffers below feed
  // the next run's publication.
  if (server_ == nullptr ||
      server_->shard_count() != trace::ShardedTraceServer::resolve_shard_count(options.trace_shards) ||
      server_->mode() != options.publish_mode || server_->policy() != options.shard_policy) {
    auto fresh = std::make_unique<trace::ShardedTraceServer>(
        options.trace_shards, options.publish_mode, options.shard_policy);
    // Only the pointer swap is guarded: slot_telemetry() on a dashboard
    // thread must never catch the fleet mid-replacement.
    {
      std::lock_guard lk(server_mu_);
      server_ = std::move(fresh);
    }
    // Rebind after the swap: the old fleet's destructor released its
    // series, so the new fleet can register the same names.
    if (metrics_registry_ != nullptr) server_->bind_metrics(*metrics_registry_, metrics_labels_);
  } else {
    // A prior run that threw mid-publication may have left spans queued;
    // a reused fleet must start the run empty (and with drop counters
    // zeroed), exactly like a fresh one. The discarded buffers refill the
    // freelists. Span ids continue across runs, like the session clock
    // does — per-run reproducibility is per fresh Session (see
    // DeterministicAcrossIdenticalRuns), not per profile() call.
    server_->recycle(server_->take_batches());
  }
  // Sampling admission: build (or drop) the policy before any tracer
  // publishes. One Sampler instance is shared by the fleet (admission),
  // the remote sink (pressure shedding), and the live analyzer
  // (rescaling) so all three agree on every span's fate.
  const bool want_sampler =
      options.sampling_rate < 1.0 || options.sampling_tail_keep_ns > 0;
  if (want_sampler) {
    if (sampler_ == nullptr || sampler_->options().rate != options.sampling_rate ||
        sampler_->options().tail_keep_ns != options.sampling_tail_keep_ns ||
        sampler_->options().seed != options.sampling_seed) {
      trace::SamplerOptions sopts;
      sopts.rate = options.sampling_rate;
      sopts.tail_keep_ns = options.sampling_tail_keep_ns;
      sopts.seed = options.sampling_seed;
      sampler_ = std::make_shared<const trace::Sampler>(sopts);
    }
  } else {
    sampler_ = nullptr;
  }
  server_->set_sampler(sampler_);
  // Per-run admission deltas come from before/after captures of the
  // fleet's lifetime-monotonic counters (a reused fleet keeps counting).
  const std::uint64_t sampled_kept_before = server_->sampled_kept_count();
  const std::uint64_t sampled_dropped_before = server_->sampled_dropped_count();
  // Streaming export: observe batches as the shards drain them, writing
  // raw publication spans to the file during the run. kObserve (tee)
  // because this run also assembles an in-memory timeline; a service that
  // only wants the file attaches its own subscriber with kConsume.
  std::ofstream stream_file;
  std::unique_ptr<trace::StreamingExporter> stream_exporter;
  std::unique_ptr<trace::BinaryWriter> binary_writer;
  struct SubscriberGuard {
    trace::ShardedTraceServer* server = nullptr;
    trace::SubscriberId stream_id = 0;
    trace::SubscriberId live_id = 0;
    trace::SubscriberId remote_id = 0;
    const std::string* partial_file = nullptr;
    ~SubscriberGuard() {
      // Detach before the exporter (captured below) dies — also on the
      // exception path, so a reused fleet never calls a dead exporter.
      if (server != nullptr && stream_id != 0) server->remove_drain_subscriber(stream_id);
      // The live analyzer outlives the run, but a detached-by-run-end
      // subscriber keeps a reused fleet from feeding a stale shard map.
      if (server != nullptr && live_id != 0) server->remove_drain_subscriber(live_id);
      // The remote sink outlives the run too (one wire stream per
      // session); only the per-run subscription detaches.
      if (server != nullptr && remote_id != 0) server->remove_drain_subscriber(remote_id);
      // A failed run must not leave a valid-looking export: the exporter's
      // destructor would still footer the partial document, so unlink the
      // file (the remaining writes go to the orphaned handle, harmlessly).
      if (partial_file != nullptr) std::remove(partial_file->c_str());
    }
  } subscriber_guard;
  subscriber_guard.server = server_.get();
  // Live online aggregation: the analyzer subscribes shard-aware (feeding
  // the hot-shard load counters) in observe mode, so it composes with the
  // streaming exporter below and with normal in-memory assembly — all of
  // them fan out on the same drain. The analyzer itself persists across
  // runs; only the subscription is per-run.
  std::shared_ptr<analysis::OnlineAnalyzer> online;
  if (options.live_stats) {
    {
      std::lock_guard lk(online_mu_);
      if (online_ == nullptr) {
        analysis::OnlineAnalyzerOptions oopts;
        oopts.shard_count = server_->shard_count();
        if (options.live_stats_window > 0) oopts.window = options.live_stats_window;
        oopts.max_kernel_rows = options.top_k_kernels;
        online_ = std::make_shared<analysis::OnlineAnalyzer>(oopts);
      }
      online = online_;
    }
    // The analyzer only ever sees admitted spans; handing it the same
    // policy lets it weight each one by 1/effective_rate so its
    // est_* fields estimate the unsampled stream.
    online->set_sampler(sampler_);
    // The analyzer is a service-lifetime accumulator: a resharded fleet
    // grows its per-shard counters and a new window reconfigures the
    // (transient) ring in place — neither discards accumulated
    // aggregates. reset_live_stats() is the only reset path.
    online->ensure_shard_count(server_->shard_count());
    if (options.live_stats_window > 0) online->set_window(options.live_stats_window);
    subscriber_guard.live_id =
        server_->add_drain_subscriber(online->shard_subscriber(), trace::DrainHandoff::kObserve);
  }
  if (!options.stream_export_path.empty()) {
    stream_file.open(options.stream_export_path, std::ios::binary | std::ios::trunc);
    if (!stream_file) {
      throw std::runtime_error("Session: cannot open stream_export_path: " +
                               options.stream_export_path);
    }
    if (options.stream_export_format == trace::ExportFormat::kBinary) {
      // Binary wire: sealed batches memcpy to the file; string bytes ship
      // once, as interning deltas. Same subscriber seam, different bytes.
      binary_writer = std::make_unique<trace::BinaryWriter>(stream_file);
      subscriber_guard.stream_id = server_->add_drain_subscriber(
          [writer = binary_writer.get()](const trace::SpanBatches& batches) {
            writer->write_batches(batches);
          },
          trace::DrainHandoff::kObserve);
    } else {
      stream_exporter = std::make_unique<trace::StreamingExporter>(
          options.stream_export_format, stream_file,
          /*with_metadata=*/options.stream_export_format == trace::ExportFormat::kSpanJson);
      subscriber_guard.stream_id = server_->add_drain_subscriber(
          [exporter = stream_exporter.get()](const trace::SpanBatches& batches) {
            exporter->write_batches(batches);
          },
          trace::DrainHandoff::kObserve);
    }
    subscriber_guard.partial_file = &options.stream_export_path;
  }
  // Remote forwarding: the same drain seam, but the bytes leave the
  // process — a RemoteSink ships raw publication spans to a collector
  // daemon over the binary wire. Observe mode, composing with the local
  // timeline, the file exporters, and the live analyzer above. The sink
  // persists across runs (one stream, its footer sent when the session
  // dies); a run naming a different endpoint closes the old stream first.
  if (!options.remote_endpoint.empty()) {
    if (remote_ == nullptr || remote_uri_ != options.remote_endpoint) {
      remote_.reset();  // close (footer + drain ack) before reconnecting
      remote_ = std::make_unique<trace::RemoteSink>(
          net::Endpoint::parse(options.remote_endpoint));
      remote_uri_ = options.remote_endpoint;
      if (metrics_registry_ != nullptr)
        remote_->bind_metrics(*metrics_registry_, metrics_labels_);
    }
    // The forwarded batches were already admitted by the fleet's sampler;
    // the sink uses the policy only to shed low-value spans first when
    // its outbox backs up (instead of dropping whole batches blind).
    remote_->set_sampler(sampler_);
    subscriber_guard.remote_id = server_->add_drain_subscriber(
        [sink = remote_.get()](const trace::SpanBatches& batches) {
          sink->write_batches(batches);
        },
        trace::DrainHandoff::kObserve);
  }

  model_tracer_ = std::make_unique<trace::Tracer>(*server_, "model_timer", trace::kModelLevel);
  layer_tracer_ =
      std::make_unique<trace::Tracer>(*server_, "framework_profiler", trace::kLayerLevel);
  library_tracer_ =
      std::make_unique<trace::Tracer>(*server_, "library_tracer", trace::kLibraryLevel);
  gpu_tracer_ = std::make_unique<trace::Tracer>(*server_, "cupti", trace::kKernelLevel);
  model_tracer_->set_enabled(options.model_level);
  layer_tracer_->set_enabled(options.layer_level);
  library_tracer_->set_enabled(options.library_level);
  gpu_tracer_->set_enabled(options.gpu_level);

  device_.reset();
  device_.set_timing_jitter(options.timing_jitter, options.jitter_seed);

  // Attach the GPU profiler before any device work, as nvprof/Nsight do.
  std::unique_ptr<cupti::CuptiProfiler> cupti_profiler;
  if (options.gpu_level) {
    cupti::CuptiOptions copts;
    if (options.gpu_metrics) {
      copts.metrics = {cupti::kFlopCountSp, cupti::kDramReadBytes, cupti::kDramWriteBytes,
                       cupti::kAchievedOccupancy};
    }
    cupti_profiler = std::make_unique<cupti::CuptiProfiler>(device_, copts);
    cupti_profiler->start();
  }

  const std::int64_t batch = graph.batch();
  const TimePoint pipeline_begin = clock_.now();

  // --- input pre-processing ----------------------------------------------
  const auto pre = start_span("Input Pre-Process");
  cpu_work(kPreprocessPerImage * batch);
  finish_span(pre);

  // --- model prediction (TF_SessionRun / MXPredForward analogue) ----------
  const auto predict = start_span("Model Prediction");
  framework::RunOptions ropts;
  ropts.enable_layer_profiling = options.layer_level;
  ropts.enable_library_profiling = options.library_level;
  const framework::RunResult run = executor_.run(graph, ropts);
  finish_span(predict);

  // --- output post-processing ----------------------------------------------
  const auto post = start_span("Output Post-Process");
  cpu_work(kPostprocessPerImage * batch);
  finish_span(post);

  const TimePoint pipeline_end = clock_.now();

  // --- offline conversion: framework profiler records -> layer spans ------
  // Layer spans are explicit children of the model-prediction span
  // (Section III-B point 2), so no interval search is needed for them.
  if (options.layer_level) {
    for (const auto& rec : run.layer_records) {
      trace::Span s;
      s.name = rec.name;
      s.kind = trace::SpanKind::kRegular;
      s.begin = rec.begin;
      s.end = rec.end;
      s.parent = predict;
      set_tag(s, keys().layer_type, rec.type);
      set_tag(s, keys().shape, rec.shape.str());
      set_metric(s, keys().layer_index, rec.index);
      set_metric(s, keys().alloc_bytes, rec.alloc_bytes);
      layer_tracer_->publish_completed(std::move(s));
    }
  }

  // --- offline conversion: library-call records -> library spans ----------
  // Library spans carry no explicit parent; interval containment nests them
  // under their layer (and kernels under them, when this level is on).
  if (options.library_level) {
    for (const auto& rec : run.library_records) {
      trace::Span s;
      s.name = rec.name;
      s.begin = rec.begin;
      s.end = rec.end;
      set_metric(s, keys().layer_index, rec.layer_index);
      library_tracer_->publish_completed(std::move(s));
    }
  }

  // --- offline conversion: CUPTI records -> launch/execution spans --------
  if (options.gpu_level) {
    cupti_profiler->stop();

    for (const auto& api : cupti_profiler->api_records()) {
      if (api.api != sim::ApiCallbackInfo::Api::kLaunchKernel &&
          api.api != sim::ApiCallbackInfo::Api::kMemcpy) {
        continue;
      }
      trace::Span s;
      s.name = sim::api_name(api.api);
      s.kind = trace::SpanKind::kLaunch;
      s.begin = api.begin;
      s.end = api.end;
      s.correlation_id = api.correlation_id;
      set_tag(s, keys().kernel, api.name);
      gpu_tracer_->publish_completed(std::move(s));
    }

    const auto& metric_records = cupti_profiler->metric_records();
    for (const auto& act : cupti_profiler->activity_records()) {
      trace::Span s;
      s.name = act.name;
      s.kind = trace::SpanKind::kExecution;
      s.begin = act.begin;
      s.end = act.end;
      s.correlation_id = act.correlation_id;
      if (act.type == sim::ActivityRecord::Type::kKernel) {
        // Grid/block dims are the canonical high-cardinality composed
        // values (the ROADMAP's unbounded-interning concern): inline
        // tags keep them out of the process-lifetime StringTable. No
        // aggregation keys on them (analysis keys on kernel/layer_type/
        // shape), so nothing downstream loses its StrId.
        set_inline_tag(s, keys().grid, "[" + std::to_string(act.kernel.grid.x) + "," +
                                           std::to_string(act.kernel.grid.y) + "," +
                                           std::to_string(act.kernel.grid.z) + "]");
        set_inline_tag(s, keys().block, "[" + std::to_string(act.kernel.block.x) + "," +
                                            std::to_string(act.kernel.block.y) + "," +
                                            std::to_string(act.kernel.block.z) + "]");
        set_tag(s, keys().kind, keys().kind_kernel);
      } else {
        set_tag(s, keys().kind, keys().kind_memcpy);
      }
      if (auto it = metric_records.find(act.correlation_id); it != metric_records.end()) {
        for (const auto& [metric, value] : it->second) set_metric(s, metric, value);
      }
      gpu_tracer_->publish_completed(std::move(s));
    }
  }

  RunTrace result;
  result.options = options;
  // trace_meta() flushes every shard first, so every span of the run has
  // reached the drain subscribers and the admission counters are settled.
  // Slot health is read after that flush: worker threads that died
  // during the run have been reclaimed, so live_slots reports live
  // producers, not cumulative churn.
  static_cast<trace::TraceMeta&>(result) = server_->trace_meta();
  // The fleet counts admissions over its lifetime; the run reports its own.
  result.sampled_kept -= sampled_kept_before;
  result.sampled_dropped -= sampled_dropped_before;
  sampled_kept_total_ += result.sampled_kept;
  sampled_dropped_total_ += result.sampled_dropped;
  if (online != nullptr) {
    // Session-lifetime totals, matching the analyzer's cross-run
    // accumulation (injected before the streamed footer renders below).
    online->set_sampling_accounting(sampled_kept_total_, sampled_dropped_total_);
  }
  if (subscriber_guard.remote_id != 0) {
    // trace_meta() above flushed every shard, so the remote sink has been
    // handed every span of the run. Detach the per-run subscription, seal
    // the partial batch toward the wire, and sample the sink's
    // session-cumulative accounting. Delivery stays async — the sender
    // thread keeps draining; only the handoff is complete.
    server_->remove_drain_subscriber(subscriber_guard.remote_id);
    subscriber_guard.remote_id = 0;
    remote_->flush();
    result.remote_spans = remote_->spans_published();
    result.remote_dropped_spans = remote_->spans_dropped();
    result.remote_reconnects = remote_->reconnects();
    // The stream footer (written when the session dies) carries the last
    // run's telemetry, with admissions counted over the whole stream — the
    // session, like the stream's span_count.
    trace::TraceMeta stream_meta = result;
    stream_meta.sampled_kept = sampled_kept_total_;
    stream_meta.sampled_dropped = sampled_dropped_total_;
    remote_->set_meta(stream_meta);
  }
  if (stream_exporter != nullptr || binary_writer != nullptr) {
    // trace_meta() flushed every shard, so the subscriber has observed
    // every span of the run; detach, then finalize the file with the
    // run's telemetry in the footer.
    server_->remove_drain_subscriber(subscriber_guard.stream_id);
    subscriber_guard.stream_id = 0;
    subscriber_guard.partial_file = nullptr;
    if (stream_exporter != nullptr) {
      stream_exporter->set_meta(result.trace_meta());
      if (online != nullptr) {
        // Final online aggregates ride in the span-JSON metadata footer (a
        // no-op for the Chrome format, which has no metadata section).
        stream_exporter->set_footer_section("online",
                                            analysis::online_summary_json(online->snapshot()));
      }
      stream_exporter->finish();
      result.streamed_spans = stream_exporter->spans_written();
      result.streamed_bytes = stream_exporter->bytes_written();
    } else {
      binary_writer->set_meta(result.trace_meta());
      binary_writer->finish();
      result.streamed_spans = binary_writer->spans_written();
      result.streamed_bytes = binary_writer->bytes_written();
    }
    stream_file.close();
    if (!stream_file) {
      throw std::runtime_error("Session: short write to stream_export_path: " +
                               options.stream_export_path);
    }
  }
  // Merge step: the per-shard batch lists concatenate in O(batches), and
  // assemble begin-orders the nodes, so shard count never changes the
  // assembled timeline. Buffers go back to the shard freelists, feeding
  // the next run on this session (the fleet outlives the run above).
  trace::SpanBatches batches = server_->take_batches();
  result.timeline = trace::Timeline::assemble(batches);
  server_->recycle(std::move(batches));
  result.model_latency = run.latency();
  result.pipeline_latency = pipeline_end - pipeline_begin;
  return result;
}

}  // namespace xsp::profile
