#include "xsp/trace/trace_server.hpp"

#include "xsp/trace/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace xsp::trace {

namespace {

std::uint64_t next_server_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

/// Process-wide map of live servers keyed by their process-unique uid —
/// the weak link between a thread-exit hook and the servers the thread
/// published to. Keying on the uid (never reused) rather than the server
/// address (readily reused by the allocator) is what makes the hook safe
/// to run after any subset of its servers has died: a dead server simply
/// is not in the map, and a new server at the old address has a new uid.
///
/// The singleton is leaked on purpose: the main thread's TLS destructors
/// can run while static destruction is already under way (and a
/// static-storage TraceServer can die before or after them, in either
/// order), so the registry must stay valid to the very end of the
/// process.
class SlotRegistry {
 public:
  static SlotRegistry& instance() {
    static SlotRegistry* leaked = new SlotRegistry;
    return *leaked;
  }

  void add(std::uint64_t uid, TraceServer* server) {
    std::lock_guard lk(mu_);
    servers_.emplace(uid, server);
  }

  void remove(std::uint64_t uid) {
    std::lock_guard lk(mu_);
    servers_.erase(uid);
  }

  /// Drop uids whose server is gone. Bounds a long-lived thread's
  /// touched-uid list to the servers still alive: without pruning, a
  /// thread outliving many short-lived servers would accrete dead uids
  /// forever and walk them all at exit while holding mu_.
  void prune_dead(std::vector<std::uint64_t>& uids) {
    std::lock_guard lk(mu_);
    uids.erase(std::remove_if(uids.begin(), uids.end(),
                              [this](std::uint64_t uid) {
                                return servers_.find(uid) == servers_.end();
                              }),
               uids.end());
  }

  /// Thread-exit hook body: mark `thread_key`'s slot reclaimable on every
  /// still-live server among `uids`. Holding mu_ pins each server —
  /// ~TraceServer blocks in remove() until the marking is done, so the
  /// mapped pointers cannot dangle mid-call.
  void thread_exited(std::uint64_t thread_key, const std::vector<std::uint64_t>& uids) {
    std::lock_guard lk(mu_);
    for (const std::uint64_t uid : uids) {
      if (auto it = servers_.find(uid); it != servers_.end()) {
        it->second->note_thread_exit(thread_key);
      }
    }
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, TraceServer*> servers_;
};

}  // namespace detail

namespace {

struct IdBlock {
  const void* server;
  std::uint64_t uid;
  SpanId next;
  SpanId end;
};

thread_local IdBlock tls_id_block{nullptr, 0, 0, 0};

}  // namespace

SpanId TraceServer::next_span_id() noexcept {
  IdBlock& block = tls_id_block;
  if (block.server == this && block.uid == uid_ && block.next != block.end) {
    return block.next++;
  }
  // Global block number under the stripe: shard i of N allocates blocks
  // i, i+N, i+2N, ... — disjoint across shards by construction. Block 0
  // starts at id 1, so kNoSpan is never handed out.
  const std::uint64_t k = next_block_.fetch_add(1, std::memory_order_relaxed);
  const SpanId start = (stripe_.index + k * stripe_.stride) * kIdBlockSize + 1;
  block = {this, uid_, start + 1, start + kIdBlockSize};
  return start;
}

TraceServer::TraceServer(PublishMode mode, IdStripe stripe)
    : mode_(mode), stripe_(stripe), uid_(next_server_uid()) {
  if (stripe_.stride == 0) stripe_.stride = 1;
  if (mode_ == PublishMode::kAsync) {
    collector_ = std::thread([this] { collector_loop(); });
  }
  // Discoverable by thread-exit hooks only once fully constructed.
  detail::SlotRegistry::instance().add(uid_, this);
}

TraceServer::~TraceServer() {
  // Unbind self-metrics before anything starts tearing down: releasing the
  // callback handles serializes with any in-flight scrape on the registry
  // lock, so no sample callback can observe a half-destroyed server.
  {
    std::lock_guard lk(metrics_mu_);
    drain_hist_.store(nullptr, std::memory_order_release);
    metrics_cbs_.clear();
    // drain_hist_refs_ stays populated until member destruction (after
    // the collector join below): an in-flight drain pass may still hold
    // the raw pointer it loaded before the store above.
  }
  // Next, disappear from the exit-hook registry: remove() synchronizes
  // with any in-flight thread_exited() walk (which holds the registry
  // lock while calling into servers), so after this line no exit hook can
  // reach a server that is tearing down.
  detail::SlotRegistry::instance().remove(uid_);
  // The no-drop guarantee is that flush()/take_trace() return every span
  // published before them, at any point up to destruction — queued spans
  // are never lost while the server is alive. Destruction itself only
  // joins the collector; whatever the owner chose not to take is freed
  // with the slots.
  // kStop must overwrite a pending kWake, so no wake_collector() here.
  if (collector_.joinable()) {
    wake_.store(kStop, std::memory_order_release);
    wake_.notify_one();
    collector_.join();
  }
}

namespace {

struct CacheEntry {
  const void* server;
  std::uint64_t uid;
  void* slot;
};

// Single-entry fast path: the overwhelmingly common case is one thread
// publishing to one server in a tight loop. POD thread_local, so no TLS
// guard check on access.
thread_local CacheEntry tls_last_slot{nullptr, 0, nullptr};

// True once this thread's exit hook (~ThreadRecord) has run. POD, so it
// stays readable from TLS destructors sequenced after the record's own —
// the guard that keeps a late publish from touching the destroyed record.
thread_local bool tls_thread_exited = false;

/// Process-unique key for the calling thread (thread ids can be reused by
/// the OS; this never is).
std::uint64_t this_thread_key() {
  static std::atomic<std::uint64_t> counter{1};
  thread_local std::uint64_t key = counter.fetch_add(1, std::memory_order_relaxed);
  return key;
}

/// Per-thread slot-cache + reclamation record. Constructed on the
/// thread's first local_slot() registration (lazy TLS init), which is
/// also what arms the exit hook: the destructor tells every still-live
/// server the thread touched to reclaim its slot.
struct ThreadRecord {
  std::vector<CacheEntry> cache;
  /// Uids of the servers this thread registered a slot with. Uids, not
  /// pointers: the hook must be weak against servers dying first.
  std::vector<std::uint64_t> touched;

  ~ThreadRecord() {
    // Invalidate the caches BEFORE marking: the instant a slot is marked
    // reclaimable, a concurrent drain may retire (and even free) it, so
    // no cached pointer to it may survive this point. A publish from a
    // TLS destructor sequenced after this one takes the degraded
    // registry-lookup path via tls_thread_exited.
    tls_last_slot = {nullptr, 0, nullptr};
    cache.clear();
    tls_thread_exited = true;
    detail::SlotRegistry::instance().thread_exited(this_thread_key(), touched);
  }
};

thread_local ThreadRecord tls_record;

}  // namespace

TraceServer::ProducerSlot& TraceServer::local_slot() {
  if (tls_last_slot.server == this && tls_last_slot.uid == uid_) {
    return *static_cast<ProducerSlot*>(tls_last_slot.slot);
  }
  const std::uint64_t me = this_thread_key();
  if (tls_thread_exited) {
    // Publishing after this thread's exit hook already ran (a TLS
    // destructor sequenced later than the record's). No future hook will
    // mark whatever we use now, so resurrect-or-register uncached: the
    // slot simply lives until the server dies — the pre-reclamation
    // lifetime. Nothing is lost, the slot is merely not reclaimed.
    return register_slot(me, /*resurrect=*/true);
  }
  ThreadRecord& rec = tls_record;  // first use arms the exit hook
  for (const auto& e : rec.cache) {
    if (e.server == this && e.uid == uid_) {
      tls_last_slot = e;
      return *static_cast<ProducerSlot*>(e.slot);
    }
  }
  // Cache miss: find this thread's existing slot (registered before a
  // cache eviction) or register a new one. The uid check above makes
  // stale entries (a dead server whose address was reused) miss, and the
  // cache is bounded so long-lived threads touching many short-lived
  // servers re-look-up instead of growing forever.
  if (rec.cache.size() >= 64) rec.cache.clear();
  ProducerSlot& slot = register_slot(me, /*resurrect=*/false);
  if (std::find(rec.touched.begin(), rec.touched.end(), uid_) == rec.touched.end()) {
    // Like the cache bound above, but for the exit hook's work list:
    // shed uids of dead servers so a long-lived thread touching many
    // short-lived servers carries (and at exit walks) only live ones.
    if (rec.touched.size() >= 64) detail::SlotRegistry::instance().prune_dead(rec.touched);
    rec.touched.push_back(uid_);
  }
  rec.cache.push_back({this, uid_, &slot});
  tls_last_slot = rec.cache.back();
  return slot;
}

TraceServer::ProducerSlot& TraceServer::register_slot(std::uint64_t thread_key, bool resurrect) {
  std::lock_guard lk(registry_mu_);
  for (const auto& existing : slots_) {
    if (existing->owner == thread_key) {
      if (resurrect) {
        // Un-mark under the slot spinlock: a drain pass either retired
        // the slot before we got here (not found, fall through below) or
        // will see reclaimable == false and leave it alone while the
        // caller publishes into it.
        existing->acquire();
        existing->reclaimable = false;
        existing->release();
      }
      return *existing;
    }
  }
  std::unique_ptr<ProducerSlot> owned;
  if (!free_slots_.empty()) {
    owned = std::move(free_slots_.back());
    free_slots_.pop_back();
  } else {
    owned = std::make_unique<ProducerSlot>();
  }
  owned->owner = thread_key;
  owned->reclaimable = false;
  // A parked slot retired with an empty active batch kept its capacity;
  // otherwise draw a recycled buffer (or allocate, on the cold path).
  if (owned->active.capacity() < kBatchCapacity) owned->active = take_free_batch_or_new();
  ProducerSlot* slot = owned.get();
  slots_.push_back(std::move(owned));
  return *slot;
}

void TraceServer::note_thread_exit(std::uint64_t thread_key) {
  if (!reclaim_enabled_.load(std::memory_order_relaxed)) return;
  bool marked = false;
  {
    std::lock_guard lk(registry_mu_);
    for (auto& slot : slots_) {
      if (slot->owner == thread_key) {
        slot->acquire();
        slot->reclaimable = true;
        slot->release();
        marked = true;
        break;
      }
    }
  }
  // Retirement happens only inside a drain sweep; wake the collector so an
  // idle server sheds the ~50KB promptly (kSync retires on the next flush).
  if (marked && mode_ == PublishMode::kAsync) wake_collector();
}

void TraceServer::wake_collector() noexcept {
  // The load skips the RMW while a wake is pending; the CAS keeps kStop.
  std::uint32_t idle = kIdle;
  if (wake_.load(std::memory_order_relaxed) == kIdle &&
      wake_.compare_exchange_strong(idle, kWake, std::memory_order_release,
                                    std::memory_order_relaxed)) {
    wake_.notify_one();
  }
}

SpanBatch TraceServer::take_free_batch_or_new() {
  SpanBatch batch;
  if (free_mu_.try_lock()) {
    if (!free_batches_.empty()) {
      batch = std::move(free_batches_.back());
      free_batches_.pop_back();
    }
    free_mu_.unlock();
  }
  if (batch.capacity() < kBatchCapacity) batch.reserve(kBatchCapacity);
  return batch;
}

void TraceServer::publish(Span span) {
  // Admission: one relaxed-ordered pointer load when no sampler is
  // attached — the rate-1.0 configuration must stay within noise of the
  // unsampled publish path (bench_abl_sampling pins this).
  const Sampler* sampler = sampler_ptr_.load(std::memory_order_acquire);
  if (sampler != nullptr && !sampler->admit(span)) {
    ProducerSlot& slot = local_slot();
    slot.acquire();
    ++slot.sampled_dropped;
    slot.release();
    return;
  }
  ProducerSlot& slot = local_slot();
  bool sealed = false;
  slot.acquire();
  if (sampler != nullptr) ++slot.sampled_kept;
  if (span.dropped_annotations != 0) slot.dropped += span.dropped_annotations;
  slot.active.push_back(std::move(span));
  if (slot.active.size() >= kBatchCapacity) {
    slot.sealed.push_back(std::move(slot.active));
    slot.active = take_free_batch_or_new();
    sealed = true;
  }
  slot.release();
  if (sealed && mode_ == PublishMode::kAsync) wake_collector();
}

void TraceServer::drain(bool steal_active) {
  // One drain pass at a time: batches must never sit in a concurrent
  // pass's staging while another pass reports the slots empty.
  std::lock_guard drain_lk(drain_mu_);
  // Drain-latency self-metric: one steady_clock pair per pass (hundreds
  // of spans), and only when bound — unbound costs a relaxed load.
  struct DrainTimer {
    metrics::Histogram* hist;
    std::chrono::steady_clock::time_point t0;
    explicit DrainTimer(metrics::Histogram* h)
        : hist(h),
          t0(h ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{}) {}
    ~DrainTimer() {
      if (hist == nullptr) return;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      hist->observe(static_cast<std::uint64_t>(ns));
    }
  } drain_timer(drain_hist_.load(std::memory_order_acquire));
  SpanBatches& taken = drain_staging_;
  std::uint64_t dropped = 0;
  std::uint64_t s_kept = 0;
  std::uint64_t s_dropped = 0;
  const bool reclaim = reclaim_enabled_.load(std::memory_order_relaxed);
  {
    std::lock_guard lk(registry_mu_);
    for (std::size_t i = 0; i < slots_.size();) {
      ProducerSlot& slot = *slots_[i];
      slot.acquire();
      // A reclaimable slot gets a final sweep — sealed AND partial
      // batches — then retires, so an exiting thread's spans are taken
      // exactly once and never stranded in a parked slot.
      const bool retire = reclaim && slot.reclaimable;
      for (auto& batch : slot.sealed) taken.push_back(std::move(batch));
      slot.sealed.clear();
      if ((steal_active || retire) && !slot.active.empty()) {
        taken.push_back(std::move(slot.active));
        // A retiring slot's replacement is never published into; leave it
        // empty rather than drawing down the batch freelist.
        slot.active = retire ? SpanBatch{} : take_free_batch_or_new();
      }
      dropped += slot.dropped;
      slot.dropped = 0;
      s_kept += slot.sampled_kept;
      slot.sampled_kept = 0;
      s_dropped += slot.sampled_dropped;
      slot.sampled_dropped = 0;
      slot.release();
      if (!retire) {
        ++i;
        continue;
      }
      // Unlink (order is irrelevant; swap-remove), scrub ownership, and
      // park for the next producer thread — or free, once the parking lot
      // is full. Safe outside the spinlock: the slot is unreachable the
      // moment it leaves slots_ (its owner thread is exiting and its
      // caches were invalidated before the reclaim mark was set).
      std::unique_ptr<ProducerSlot> retired = std::move(slots_[i]);
      slots_[i] = std::move(slots_.back());
      slots_.pop_back();
      retired->owner = 0;
      retired->reclaimable = false;
      ++retired_slots_;
      if (free_slots_.size() < kSlotFreelistCapacity) {
        free_slots_.push_back(std::move(retired));
      } else {
        // The slot dies, but its warmed batch buffer is still good: feed
        // the batch freelist instead of re-allocating the same ~47KB for
        // the next fresh registration. (No-op for a stolen-empty active.)
        recycle_one(std::move(retired->active));
      }
    }
  }
  // Sampler accounting is lifetime-monotonic (like drained_spans_) and
  // atomic, so it lands before the early-out below: a drain pass that
  // found nothing but sampled-out spans still records them.
  if (s_kept != 0) sampled_kept_.fetch_add(s_kept, std::memory_order_relaxed);
  if (s_dropped != 0)
    sampled_dropped_.fetch_add(s_dropped, std::memory_order_relaxed);
  if (taken.empty() && dropped == 0) return;
  if (!taken.empty()) {
    std::size_t drained = 0;
    for (const auto& batch : taken) drained += batch.size();
    drained_spans_.fetch_add(drained, std::memory_order_relaxed);
  }
  // Streaming hooks: every subscriber sees the drained batches here, after
  // the slot spinlocks are released (publishers are not blocked) and under
  // drain_mu_ (subscriber calls never overlap for one server). Observers
  // fan out in attach order, the consumer runs last; when a consumer is
  // attached the buffers feed the freelist straight back and never touch
  // trace_ — the bounded-memory path for unbounded traces.
  bool consumed = false;
  if (!taken.empty() && !subscribers_.empty()) {
    for (std::size_t i = 0; i < subscribers_.size();) {
      // add_drain_subscriber keeps the one consumer at the back, so plain
      // attach-order iteration already delivers observers first.
      try {
        subscribers_[i].fn(taken);
        if (subscribers_[i].handoff == DrainHandoff::kConsume) consumed = true;
        ++i;
      } catch (...) {
        // A throwing subscriber is detached — only it. If the consumer
        // threw, its spans fall through to in-server accumulation:
        // re-delivering the still-staged batches next pass would duplicate
        // them, and an exception escaping the collector thread would
        // terminate the process.
        subscribers_.erase(subscribers_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  if (consumed) {
    {
      std::lock_guard lk(trace_mu_);
      dropped_total_ += dropped;
    }
    for (auto& batch : taken) recycle_one(std::move(batch));
    taken.clear();
    return;
  }
  // Aggregation is batch-handle moves only; spans themselves stay put.
  std::lock_guard lk(trace_mu_);
  for (auto& batch : taken) trace_.push_back(std::move(batch));
  taken.clear();
  dropped_total_ += dropped;
}

SubscriberId TraceServer::add_drain_subscriber(DrainSubscriber subscriber,
                                               DrainHandoff handoff) {
  if (!subscriber) throw std::logic_error("TraceServer: null drain subscriber");
  // Synchronize with in-flight drains: the new subscriber sees every batch
  // drained after this call, none before it.
  std::lock_guard lk(drain_mu_);
  if (handoff == DrainHandoff::kConsume) {
    for (const auto& sub : subscribers_) {
      if (sub.handoff == DrainHandoff::kConsume) {
        // Two consumers would each believe they own the span stream (the
        // first one's buffers are recycled under the second one's feet).
        // The pre-fan-out API silently replaced the first — error loudly
        // instead.
        throw std::logic_error(
            "TraceServer: a kConsume drain subscriber is already attached "
            "(at most one consumer; use kObserve for additional taps)");
      }
    }
  }
  const SubscriberId id = next_subscriber_id_++;
  Subscriber entry{id, std::move(subscriber), handoff};
  if (handoff == DrainHandoff::kConsume || subscribers_.empty()) {
    subscribers_.push_back(std::move(entry));
  } else {
    // Keep the consumer (if any) at the back: delivery is a plain forward
    // walk, and observers must see a batch before its buffers are declared
    // consumable.
    const bool has_consumer = subscribers_.back().handoff == DrainHandoff::kConsume;
    subscribers_.insert(has_consumer ? subscribers_.end() - 1 : subscribers_.end(),
                        std::move(entry));
  }
  return id;
}

void TraceServer::remove_drain_subscriber(SubscriberId id) {
  // Synchronize with in-flight drains: after this returns, no drain pass
  // will call the removed subscriber (safe to destroy the exporter).
  std::lock_guard lk(drain_mu_);
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    if (subscribers_[i].id == id) {
      subscribers_.erase(subscribers_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::size_t TraceServer::drain_subscriber_count() {
  std::lock_guard lk(drain_mu_);
  return subscribers_.size();
}

std::size_t TraceServer::live_slot_count() {
  std::lock_guard lk(registry_mu_);
  return slots_.size();
}

std::uint64_t TraceServer::retired_slot_count() {
  std::lock_guard lk(registry_mu_);
  return retired_slots_;
}

std::size_t TraceServer::pooled_slot_count() {
  std::lock_guard lk(registry_mu_);
  return free_slots_.size();
}

std::uint64_t TraceServer::approx_slot_bytes() {
  const auto slot_bytes = [](ProducerSlot& slot) {
    std::uint64_t bytes = sizeof(ProducerSlot);
    // Capacities mutate under the slot spinlock (publish/seal); take it
    // so the estimate is coherent. Telemetry-rate call, not a hot path.
    slot.acquire();
    bytes += slot.active.capacity() * sizeof(Span);
    bytes += slot.sealed.capacity() * sizeof(SpanBatch);
    for (const auto& batch : slot.sealed) bytes += batch.capacity() * sizeof(Span);
    slot.release();
    return bytes;
  };
  std::lock_guard lk(registry_mu_);
  std::uint64_t total = 0;
  for (auto& slot : slots_) total += slot_bytes(*slot);
  for (auto& slot : free_slots_) total += slot_bytes(*slot);
  return total;
}

void TraceServer::bind_metrics(metrics::Registry& registry, metrics::Labels labels) {
  std::lock_guard lk(metrics_mu_);
  metrics_cbs_.clear();
  const auto cb = [&](const char* name, const char* help, metrics::Kind kind,
                      metrics::Sample sample) {
    metrics_cbs_.push_back(registry.callback(name, help, kind, labels, std::move(sample)));
  };
  // Counters the server already maintains: sampled without flushing, so
  // they advance at drain cadence and the publish path pays nothing.
  cb("xsp_trace_drained_spans_total",
     "Spans drained out of producer slots (admitted spans, at drain cadence)",
     metrics::Kind::kCounter, [this] {
       return static_cast<double>(drained_spans_.load(std::memory_order_relaxed));
     });
  cb("xsp_trace_sampled_kept_total", "Spans the admission sampler kept at publish",
     metrics::Kind::kCounter, [this] {
       return static_cast<double>(sampled_kept_.load(std::memory_order_relaxed));
     });
  cb("xsp_trace_sampled_dropped_total", "Spans the admission sampler shed at publish",
     metrics::Kind::kCounter, [this] {
       return static_cast<double>(sampled_dropped_.load(std::memory_order_relaxed));
     });
  cb("xsp_trace_dropped_annotations_total",
     "Per-span annotation drops (tag/metric capacity overflow), as of the last drain",
     metrics::Kind::kCounter, [this] {
       std::lock_guard tl(trace_mu_);
       return static_cast<double>(dropped_total_);
     });
  cb("xsp_trace_live_slots", "Producer slots currently registered",
     metrics::Kind::kGauge, [this] {
       std::lock_guard rl(registry_mu_);
       return static_cast<double>(slots_.size());
     });
  cb("xsp_trace_retired_slots_total", "Producer slots retired by thread-exit reclamation",
     metrics::Kind::kCounter, [this] {
       std::lock_guard rl(registry_mu_);
       return static_cast<double>(retired_slots_);
     });
  cb("xsp_trace_slot_bytes", "Approximate bytes resident in producer slots",
     metrics::Kind::kGauge,
     [this] { return static_cast<double>(approx_slot_bytes()); });
  // The one new measurement: drain-pass wall time (see drain()).
  drain_hist_refs_.push_back(registry.histogram(
      "xsp_trace_drain_duration_ns", "Wall time of one drain pass in nanoseconds",
      metrics::latency_buckets_ns(), labels));
  drain_hist_.store(drain_hist_refs_.back().get(), std::memory_order_release);
}

void TraceServer::collector_loop() {
  for (;;) {
    wake_.wait(kIdle, std::memory_order_acquire);
    // Clear before draining: a batch sealed after this either lands in
    // the pass below (its slot lock orders it) or sets the word again.
    if (wake_.exchange(kIdle, std::memory_order_acquire) == kStop) return;
    drain(/*steal_active=*/false);
  }
}

void TraceServer::flush() {
  // The caller drains directly instead of waiting for the collector: this
  // both bounds flush latency and keeps kSync (no collector) correct.
  drain(/*steal_active=*/true);
}

std::size_t TraceServer::span_count() {
  flush();
  std::lock_guard lk(trace_mu_);
  std::size_t total = 0;
  for (const auto& batch : trace_) total += batch.size();
  return total;
}

std::uint64_t TraceServer::drained_span_count() {
  flush();
  return drained_spans_.load(std::memory_order_relaxed);
}

std::uint64_t TraceServer::dropped_annotation_count() {
  flush();
  std::lock_guard lk(trace_mu_);
  return dropped_total_;
}

void TraceServer::set_sampler(std::shared_ptr<const Sampler> sampler) {
  std::lock_guard lk(sampler_mu_);
  const Sampler* raw = sampler.get();
  // Re-installing the current policy (a session re-applying unchanged
  // options every run) must not grow the retention list.
  if (raw == sampler_ptr_.load(std::memory_order_relaxed)) return;
  // Retain every policy ever installed: a publisher that loaded the old
  // raw pointer just before this store must still be able to finish its
  // admit() call. Policies are small and set_sampler is a configuration
  // action, so the retention list stays tiny.
  if (sampler != nullptr) sampler_refs_.push_back(std::move(sampler));
  sampler_ptr_.store(raw, std::memory_order_release);
}

std::uint64_t TraceServer::sampled_kept_count() {
  flush();
  return sampled_kept_.load(std::memory_order_relaxed);
}

std::uint64_t TraceServer::sampled_dropped_count() {
  flush();
  return sampled_dropped_.load(std::memory_order_relaxed);
}

SpanBatches TraceServer::take_batches() {
  flush();
  // Replace the outgoing trace's outer vector with a recycled one so the
  // next aggregation cycle appends into pre-grown storage.
  SpanBatches fresh;
  {
    std::lock_guard lk(free_mu_);
    if (!free_outers_.empty()) {
      fresh = std::move(free_outers_.back());
      free_outers_.pop_back();
    }
  }
  std::lock_guard lk(trace_mu_);
  dropped_total_ = 0;
  return std::exchange(trace_, std::move(fresh));
}

void TraceServer::recycle_one(SpanBatch batch) {
  batch.clear();
  if (batch.capacity() == 0) return;
  std::lock_guard lk(free_mu_);
  if (free_batches_.size() < kFreelistCapacity) free_batches_.push_back(std::move(batch));
}

void TraceServer::recycle(SpanBatches batches) {
  std::lock_guard lk(free_mu_);
  for (auto& batch : batches) {
    if (free_batches_.size() >= kFreelistCapacity) break;
    batch.clear();
    // Undersized vectors (partial batches from a steal) are still useful:
    // take_free_batch_or_new() grows them to capacity on reuse.
    if (batch.capacity() != 0) free_batches_.push_back(std::move(batch));
  }
  batches.clear();
  if (free_outers_.size() < 4 && batches.capacity() != 0) {
    free_outers_.push_back(std::move(batches));
  }
}

std::vector<Span> TraceServer::take_trace() {
  SpanBatches batches = take_batches();
  std::vector<Span> flat = flatten_batches(batches);
  recycle(std::move(batches));
  return flat;
}

}  // namespace xsp::trace
