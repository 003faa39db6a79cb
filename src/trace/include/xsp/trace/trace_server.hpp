// TraceServer: aggregates spans published by all tracers into one trace.
//
// "Spans are published to a tracing server which is run on a local or remote
//  system. The tracing server aggregates the spans published by the
//  different tracers into one application timeline trace."  — Section III-A
//
// This implementation is in-process but keeps the same publish/aggregate
// interface and supports asynchronous publication ("XSP converts the
// captured CUPTI information into spans and publishes them to the tracer
// server (asynchronously to avoid added overhead)" — Section III-B).
//
// Publication path: instead of one global queue behind one mutex, each
// publishing thread owns a producer slot holding an append-only batch.
// publish() appends to the caller's slot under a slot-private spinlock that
// is uncontended except when the collector steals a batch — there is no
// cross-producer synchronization. Full batches are sealed and handed to the
// collector whole, so the global trace mutex is touched once per
// kBatchCapacity spans rather than once per span. flush()/take_trace()
// semantics are unchanged: after flush() every span published
// happens-before the call is aggregated.
//
// Wake rule (kAsync): the first batch sealed while the collector sleeps
// wakes it (one atomic word; no timer, no batch threshold), so a span's
// drain lag is its batch's fill time plus one wakeup.
//
// A server can also run as one shard of a ShardedTraceServer: the IdStripe
// constructor parameter stripes the id-block sequence so N shards hand out
// disjoint span ids with no cross-shard coordination.
//
// Producer-slot lifecycle: a (thread, server) slot is registered on the
// thread's first publish. When the thread exits, a TLS hook marks its
// slots on every still-live server (keyed by server uid), and the next
// drain pass sweeps each one a final time, retires it and parks it on a
// bounded freelist: O(live threads + kSlotFreelistCapacity) slots (see
// "Producer-slot lifecycle" in src/trace/README.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xsp/metrics/registry.hpp"
#include "xsp/trace/span.hpp"
#include "xsp/trace/span_sink.hpp"

namespace xsp::trace {

class Sampler;  // sampler.hpp: head-sampling admission policy

namespace detail {
class SlotRegistry;  // trace_server.cpp: uid-keyed weak map of live servers
}

enum class PublishMode : std::uint8_t {
  kSync,   ///< no collector thread; callers drain batches on flush()
  kAsync,  ///< a collector thread drains sealed batches in the background
};

// SpanBatch/SpanBatches live in span.hpp (shared with Timeline::assemble).

/// What happens to drained batches after a drain subscriber has seen them.
enum class DrainHandoff : std::uint8_t {
  /// Tee: the subscriber observes the batches, which then accumulate in
  /// the server as usual for take_batches()/take_trace(). Memory grows
  /// with the trace — the shape for "stream a copy while also assembling".
  kObserve,
  /// The subscriber *is* the consumer: after the callback returns, the
  /// batch buffers go straight back to the server freelist and never
  /// accumulate. Server memory stays bounded regardless of trace length;
  /// take_batches()/take_trace() return nothing while attached.
  kConsume,
};

/// Observes every drained batch list, in the drain pass that moved it out
/// of the producer slots (collector thread in kAsync, the flushing caller
/// in kSync). Invoked with the drain serialized — calls never overlap for
/// one server — and with no slot spinlock held, so publishers keep
/// publishing while the subscriber writes. Should not throw: a throwing
/// subscriber is detached on the spot; if it was the consumer, the drained
/// batches (and all later ones) accumulate in the server as if none were
/// attached — spans are preserved for take_batches(), never re-delivered.
using DrainSubscriber = std::function<void(const SpanBatches&)>;

/// Handle for one attached drain subscriber (remove_drain_subscriber).
/// 0 is never a valid id.
using SubscriberId = std::uint64_t;

/// Which id blocks this server hands out: global block k of this server is
/// block `index + k * stride` of the process-wide sequence. A standalone
/// server uses {0, 1} (every block); shard i of N uses {i, N}, so ids are
/// unique across shards without any shared counter.
struct IdStripe {
  std::uint64_t index = 0;
  std::uint64_t stride = 1;
};

/// Thread-safe span sink + aggregator. `final` so calls through a concrete
/// TraceServer reference devirtualize.
class TraceServer final : public SpanSink {
 public:
  /// Spans per producer batch: the granularity at which the collector takes
  /// work and the worst-case count a crashing producer could strand.
  static constexpr std::size_t kBatchCapacity = 256;

  /// Span ids per block handed to a publishing thread.
  static constexpr SpanId kIdBlockSize = 1024;

  /// Batch vectors kept for reuse after recycle(); bounds idle memory at
  /// kFreelistCapacity * kBatchCapacity * sizeof(Span).
  static constexpr std::size_t kFreelistCapacity = 16;

  /// Retired producer slots parked for reuse: a new producer thread draws
  /// a parked slot before growing the registry, so steady-state thread
  /// churn recirculates a handful of slots instead of allocating ~50KB
  /// per short-lived thread. Retired slots beyond the cap are destroyed
  /// outright — the freelist bounds idle slot memory, it is not a cache
  /// of record.
  static constexpr std::size_t kSlotFreelistCapacity = 8;

  explicit TraceServer(PublishMode mode = PublishMode::kAsync, IdStripe stripe = {});
  ~TraceServer() override;

  TraceServer(const TraceServer&) = delete;
  TraceServer& operator=(const TraceServer&) = delete;

  /// Allocate a fresh server-unique span id (never kNoSpan). Ids are
  /// handed to threads in blocks, so concurrent tracers do not contend on
  /// one counter cache line; ids are unique but not globally dense.
  SpanId next_span_id() noexcept override;

  /// Allocate a fresh correlation id for an async launch/execution pair.
  std::uint64_t next_correlation_id() noexcept override {
    return next_corr_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Publish one completed span. Thread-safe; appends to the calling
  /// thread's batch without touching any global lock. When a sampler is
  /// attached, the admission decision happens here — before the span costs
  /// a batch slot — and the outcome is counted per slot (sampled_kept /
  /// sampled_dropped) so `published == admitted + sampled_dropped` holds
  /// exactly.
  void publish(Span span) override;

  /// Attach (or clear, with nullptr) the head-sampling admission policy
  /// consulted by publish(). The hot path reads one raw pointer: with no
  /// sampler attached publication cost is unchanged. Samplers set earlier
  /// stay alive until the server dies, so a publisher racing a
  /// set_sampler() call may use either policy but never a dangling one.
  void set_sampler(std::shared_ptr<const Sampler> sampler);

  /// Lifetime count of spans a sampler admitted at publish (flushes
  /// first). Monotonic, like drained_span_count(); zero when no sampler
  /// has ever been attached.
  [[nodiscard]] std::uint64_t sampled_kept_count();

  /// Lifetime count of spans a sampler rejected at publish (flushes
  /// first). Monotonic. `spans published == sampled_kept + sampled_dropped`
  /// whenever a sampler was attached for the whole run.
  [[nodiscard]] std::uint64_t sampled_dropped_count();

  /// Block until every span published before this call has been aggregated
  /// (drains all sealed and partial batches on the caller thread).
  void flush();

  /// Number of spans aggregated so far (flushes first).
  [[nodiscard]] std::size_t span_count();

  /// Cumulative spans drained from the producer slots over this server's
  /// lifetime (flushes first). Monotonic, and — unlike span_count() — not
  /// reset by take_batches() and still advancing while a kConsume
  /// subscriber keeps the server empty: this is the load signal per-shard
  /// telemetry aggregates.
  [[nodiscard]] std::uint64_t drained_span_count();

  /// Total annotations dropped (tag/metric capacity overflow) across all
  /// spans aggregated so far, summed at aggregation time so operators see
  /// fidelity loss without scanning spans (flushes first). Reset by
  /// take_trace()/take_batches() along with the trace itself.
  [[nodiscard]] std::uint64_t dropped_annotation_count();

  /// Flush and move the aggregated trace out, leaving the server empty and
  /// ready for the next evaluation run. Flattens into one contiguous span
  /// vector; prefer take_batches() on the hot path.
  [[nodiscard]] std::vector<Span> take_trace();

  /// Flush and move the aggregated trace out in publication batches — the
  /// zero-copy hand-off Timeline::assemble consumes directly.
  [[nodiscard]] SpanBatches take_batches();

  /// Return batch buffers from a previous take_batches() for reuse once the
  /// consumer is done with them. Recycled vectors feed the freelist that
  /// publish()/drain() draw replacement batches from, making steady-state
  /// publication allocation-free end to end. Dropping batches instead of
  /// recycling them is always safe — the freelist is an optimization.
  void recycle(SpanBatches batches);

  /// Recycle a single batch buffer (ShardedTraceServer distributes a merged
  /// take across shard freelists one batch at a time).
  void recycle_one(SpanBatch batch);

  /// Attach a drain subscriber: the streaming hook. Subscribers observe
  /// batches as they drain instead of a consumer waiting for
  /// take_batches(); any number of kObserve subscribers may be attached
  /// at once (fan-out: a streaming exporter teeing to disk AND an online
  /// analyzer aggregating live), but at most ONE kConsume subscriber —
  /// consuming hands the batch buffers to the freelist right after all
  /// callbacks ran, so two consumers would each believe they own the
  /// stream. Attaching a second consumer throws std::logic_error.
  ///
  /// Delivery order per drain pass: observers in attach order, the
  /// consumer last. With a consumer attached the publish → seal → drain →
  /// deliver → recycle cycle runs in bounded memory for arbitrarily long
  /// traces and take_batches() returns nothing. Attaching/detaching
  /// synchronizes with in-flight drains; spans already aggregated before
  /// attach are NOT replayed (attach before publishing starts).
  ///
  /// Returns the id to pass to remove_drain_subscriber().
  SubscriberId add_drain_subscriber(DrainSubscriber subscriber,
                                    DrainHandoff handoff = DrainHandoff::kObserve);

  /// Detach one subscriber. Unknown/already-removed ids are a no-op.
  /// Synchronizes with in-flight drains: after this returns no drain pass
  /// will call the removed subscriber (safe to destroy it).
  void remove_drain_subscriber(SubscriberId id);

  /// Number of currently attached drain subscribers (tests/telemetry).
  [[nodiscard]] std::size_t drain_subscriber_count();

  /// Producer slots currently registered: live publishing threads plus
  /// exited threads whose slots the next drain pass will retire. The slot
  /// health number a long-lived server watches — it must track live
  /// producers, not cumulative thread history.
  [[nodiscard]] std::size_t live_slot_count();

  /// Cumulative slots retired by drain sweeps over this server's
  /// lifetime (monotonic; one retirement per exited producer thread).
  [[nodiscard]] std::uint64_t retired_slot_count();

  /// Retired slots currently parked for reuse (<= kSlotFreelistCapacity).
  [[nodiscard]] std::size_t pooled_slot_count();

  /// Approximate bytes resident in producer slots, live and parked:
  /// struct plus active/sealed batch capacities. The ~50KB-per-slot
  /// figure operators size serving fleets with.
  [[nodiscard]] std::uint64_t approx_slot_bytes();

  /// Enable/disable thread-exit slot reclamation (on by default). Off,
  /// slots accrete until the server dies — the pre-reclamation behaviour,
  /// kept as the ablation switch for bench_abl_slot_reclamation and as an
  /// operational escape hatch. Spans are never lost either way.
  void set_slot_reclamation(bool enabled) noexcept {
    reclaim_enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Register this server's health series with a metrics registry under
  /// `labels` (e.g. {"shard","2"}). The series are callback-backed reads
  /// of counters the server already maintains, so the publish hot path
  /// gains ZERO new instructions; values advance at drain cadence (they
  /// are sampled without forcing a flush). The one new measurement is a
  /// drain-pass wall-time histogram (xsp_trace_drain_duration_ns),
  /// observed once per pass — nanoseconds per hundreds of spans.
  /// Rebinding replaces the previous binding; the binding is removed when
  /// either the server or the registry dies first (handles are weak).
  void bind_metrics(metrics::Registry& registry, metrics::Labels labels = {});

  /// True while the background collector thread exists (kAsync only; kSync
  /// must never spawn one).
  [[nodiscard]] bool has_collector() const noexcept { return collector_.joinable(); }

 private:
  /// Slots are cache-line aligned: a producer's spinlock and batch head
  /// never share a line with another producer's (or with the server's id
  /// counters below).
  struct alignas(64) ProducerSlot {
    /// Guards `active`, `sealed`, and `dropped`. Only the owning thread and
    /// the collector/flush ever touch a slot, so this spinlock is
    /// effectively uncontended on the publish path.
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    SpanBatch active;
    SpanBatches sealed;
    /// Annotation drops published through this slot since the last drain;
    /// aggregated into the server-wide counter when batches are taken.
    std::uint64_t dropped = 0;
    /// Sampler admissions/rejections through this slot since the last
    /// drain; aggregated into the lifetime sampled_kept_/sampled_dropped_
    /// counters exactly like `dropped` above.
    std::uint64_t sampled_kept = 0;
    std::uint64_t sampled_dropped = 0;
    /// Stable key of the owning thread: re-registration after a TLS cache
    /// eviction finds this slot again instead of growing slots_.
    std::uint64_t owner = 0;
    /// Set (under the slot spinlock) by the owning thread's exit hook;
    /// the next drain pass sweeps the slot one final time and retires it.
    /// Cleared if the exited thread publishes again from a later TLS
    /// destructor — the slot is resurrected rather than torn from under
    /// an in-flight publish.
    bool reclaimable = false;

    void acquire() noexcept {
      int spins = 0;
      while (lock.test_and_set(std::memory_order_acquire)) {
        // The holder is the collector moving batch handles (sub-µs) — spin
        // briefly, then yield so an oversubscribed core can run the holder.
        if (++spins > 64) std::this_thread::yield();
      }
    }
    void release() noexcept { lock.clear(std::memory_order_release); }
  };

  /// The calling thread's slot for this server (registered on first use,
  /// cached thread-locally keyed by a process-unique server uid so slot
  /// pointers never dangle across server lifetimes). First use also
  /// registers the thread's exit hook (a TLS destructor object) so the
  /// slot is reclaimed when the thread dies.
  ProducerSlot& local_slot();

  /// Find-or-register the slot for thread `thread_key` (drawing a parked
  /// retired slot before allocating). `resurrect` is the
  /// publish-after-exit-hook path: un-mark a still-registered slot so a
  /// concurrent drain cannot retire it out from under the caller.
  ProducerSlot& register_slot(std::uint64_t thread_key, bool resurrect);

  /// Called (via detail::SlotRegistry, which pins this server alive for
  /// the duration) when a producer thread exits: mark its slot
  /// reclaimable and wake the collector so retirement is prompt.
  void note_thread_exit(std::uint64_t thread_key);
  friend class detail::SlotRegistry;

  /// Wake the collector; notifies only on the kIdle -> kWake transition.
  void wake_collector() noexcept;
  void collector_loop();
  /// Move sealed (and, when `steal_active`, partial) batches of every slot
  /// into trace_.
  void drain(bool steal_active);

  /// Pop a recycled batch vector, or allocate a fresh one. Never blocks
  /// (try-lock), so it is safe to call while holding a slot spinlock.
  SpanBatch take_free_batch_or_new();

  PublishMode mode_;
  IdStripe stripe_;
  std::uint64_t uid_;

  /// Id counters are hammered by every producer; isolate them from the
  /// locks the collector/flush paths take so RMWs on one never evict the
  /// other's line. next_block_ counts blocks *this server* allocated; the
  /// stripe maps them onto the process-wide block sequence.
  alignas(64) std::atomic<std::uint64_t> next_block_{0};
  std::atomic<std::uint64_t> next_corr_{1};

  /// Serializes whole drain passes (slot sweep + trace append). Without
  /// it, a flush could sweep the slots while a concurrent collector pass
  /// still holds swept batches in its local staging — and hand the trace
  /// off incomplete.
  alignas(64) std::mutex drain_mu_;
  /// Drain staging, reused across passes (guarded by drain_mu_).
  SpanBatches drain_staging_;
  /// Streaming hooks (guarded by drain_mu_; called mid-drain). Observers
  /// fan out in attach order; at most one entry has kConsume (enforced by
  /// add_drain_subscriber) and is delivered to last.
  struct Subscriber {
    SubscriberId id = 0;
    DrainSubscriber fn;
    DrainHandoff handoff = DrainHandoff::kObserve;
  };
  std::vector<Subscriber> subscribers_;
  SubscriberId next_subscriber_id_ = 1;

  alignas(64) std::mutex registry_mu_;
  std::vector<std::unique_ptr<ProducerSlot>> slots_;
  /// Retired slots parked for reuse (guarded by registry_mu_; bounded by
  /// kSlotFreelistCapacity).
  std::vector<std::unique_ptr<ProducerSlot>> free_slots_;
  /// Lifetime count of slot retirements (guarded by registry_mu_).
  std::uint64_t retired_slots_ = 0;
  /// Thread-exit reclamation switch (see set_slot_reclamation()).
  std::atomic<bool> reclaim_enabled_{true};

  alignas(64) std::mutex trace_mu_;
  SpanBatches trace_;
  std::uint64_t dropped_total_ = 0;
  /// Lifetime total of spans drained out of the producer slots — the
  /// per-shard load counter. Atomic so telemetry reads race-free against
  /// a collector mid-drain.
  std::atomic<std::uint64_t> drained_spans_{0};
  /// Lifetime sampler admission counters, aggregated from the per-slot
  /// counts at drain (atomic for the same reason as drained_spans_).
  std::atomic<std::uint64_t> sampled_kept_{0};
  std::atomic<std::uint64_t> sampled_dropped_{0};

  /// Admission policy. The hot path loads the raw pointer (acquire); the
  /// shared_ptrs in sampler_refs_ keep every policy ever set alive so the
  /// raw pointer can never dangle mid-publish (set_sampler is a rare
  /// configuration action — retaining superseded policies is cheap).
  std::atomic<const Sampler*> sampler_ptr_{nullptr};
  std::mutex sampler_mu_;
  std::vector<std::shared_ptr<const Sampler>> sampler_refs_;

  /// Freelist of cleared batch vectors (and outer batch-list vectors) fed
  /// by recycle(); drawn from by publish()/drain()/take_batches().
  alignas(64) std::mutex free_mu_;
  SpanBatches free_batches_;
  std::vector<SpanBatches> free_outers_;

  /// Collector wake word: kIdle (asleep), kWake (work pending) or kStop.
  enum : std::uint32_t { kIdle, kWake, kStop };
  alignas(64) std::atomic<std::uint32_t> wake_{kIdle};
  std::thread collector_;

  /// Self-metrics binding (bind_metrics). drain_hist_ is the raw pointer
  /// drain passes load with one relaxed read (null when unbound — the
  /// common case costs a branch); drain_hist_refs_ keeps every histogram
  /// ever bound alive (same retain-superseded idiom as sampler_refs_, so
  /// a drain racing a rebind can never observe a dangling pointer). The
  /// callback handles are cleared first thing in the destructor, which
  /// synchronizes with any in-flight scrape on the registry lock, so a
  /// sample can never touch a dying server.
  std::mutex metrics_mu_;
  std::vector<std::shared_ptr<metrics::Histogram>> drain_hist_refs_;
  std::atomic<metrics::Histogram*> drain_hist_{nullptr};
  std::vector<metrics::CallbackHandle> metrics_cbs_;
};

}  // namespace xsp::trace
