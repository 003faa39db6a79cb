#include "xsp/trace/sharded_trace_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xsp::trace {

namespace {

/// Process-unique key for the calling thread, mixed so consecutive keys
/// spread across shards instead of clustering (threads are typically
/// created in a burst and keyed consecutively).
std::uint64_t mixed_thread_key() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  thread_local const std::uint64_t key =
      counter.fetch_add(1, std::memory_order_relaxed) * 0x9E3779B97F4A7C15ull;
  return key;
}

}  // namespace

const char* shard_policy_name(ShardPolicy p) {
  switch (p) {
    case ShardPolicy::kByThread: return "by_thread";
    case ShardPolicy::kByTracer: return "by_tracer";
    case ShardPolicy::kByTimeWindow: return "by_time_window";
  }
  return "?";
}

std::size_t ShardedTraceServer::default_shard_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 8);
}

std::size_t ShardedTraceServer::resolve_shard_count(std::size_t requested) noexcept {
  if (requested == 0) requested = default_shard_count();
  return std::min(requested, kMaxShards);
}

ShardedTraceServer::ShardedTraceServer(std::size_t shard_count, PublishMode mode,
                                       ShardPolicy policy, Ns time_window)
    : mode_(mode), policy_(policy), time_window_(time_window > 0 ? time_window : kNsPerMs) {
  shard_count = resolve_shard_count(shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<TraceServer>(mode, IdStripe{i, shard_count}));
  }
}

std::size_t ShardedTraceServer::shard_for_current_thread() const noexcept {
  return static_cast<std::size_t>(mixed_thread_key() >> 32) % shards_.size();
}

std::size_t ShardedTraceServer::shard_for(const Span& span) const noexcept {
  switch (policy_) {
    case ShardPolicy::kByTracer:
      // StrIds are dense small integers; mix before reducing.
      return static_cast<std::size_t>(
                 (span.tracer.raw() * 0x9E3779B9u) >> 16) %
             shards_.size();
    case ShardPolicy::kByTimeWindow:
      return static_cast<std::size_t>(static_cast<std::uint64_t>(span.begin) /
                                      static_cast<std::uint64_t>(time_window_)) %
             shards_.size();
    case ShardPolicy::kByThread:
    default:
      return shard_for_current_thread();
  }
}

SpanId ShardedTraceServer::next_span_id() noexcept {
  // Always the thread's shard: cheapest selector, and striped blocks make
  // any shard's ids fleet-unique, so routing of the *span* is free to
  // differ (kByTracer/kByTimeWindow).
  return shards_[shard_for_current_thread()]->next_span_id();
}

void ShardedTraceServer::publish(Span span) {
  shards_[shard_for(span)]->publish(std::move(span));
}

void ShardedTraceServer::flush() {
  for (auto& shard : shards_) shard->flush();
}

std::size_t ShardedTraceServer::span_count() {
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->span_count();
  return total;
}

std::uint64_t ShardedTraceServer::dropped_annotation_count() {
  std::uint64_t total = 0;
  for (auto& shard : shards_) total += shard->dropped_annotation_count();
  return total;
}

void ShardedTraceServer::set_sampler(std::shared_ptr<const Sampler> sampler) {
  for (auto& shard : shards_) shard->set_sampler(sampler);
}

std::uint64_t ShardedTraceServer::sampled_kept_count() {
  std::uint64_t total = 0;
  for (auto& shard : shards_) total += shard->sampled_kept_count();
  return total;
}

std::uint64_t ShardedTraceServer::sampled_dropped_count() {
  std::uint64_t total = 0;
  for (auto& shard : shards_) total += shard->sampled_dropped_count();
  return total;
}

SpanBatches ShardedTraceServer::take_batches() {
  SpanBatches merged = shards_[0]->take_batches();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    SpanBatches part = shards_[i]->take_batches();
    merged.reserve(merged.size() + part.size());
    for (auto& batch : part) merged.push_back(std::move(batch));
    part.clear();
    shards_[i]->recycle(std::move(part));
  }
  return merged;
}

std::vector<Span> ShardedTraceServer::take_trace() {
  SpanBatches batches = take_batches();
  std::vector<Span> flat = flatten_batches(batches);
  recycle(std::move(batches));
  return flat;
}

SubscriberId ShardedTraceServer::add_subscriber_impl(
    const std::function<DrainSubscriber(std::size_t)>& make_fn, DrainHandoff handoff) {
  FleetSubscriber entry;
  entry.shard_ids.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    try {
      entry.shard_ids.push_back(shards_[i]->add_drain_subscriber(make_fn(i), handoff));
    } catch (...) {
      // Consumer exclusivity tripped on shard i (someone subscribed a
      // consumer directly on it): unwind so no shard is left partially
      // subscribed, then surface the error.
      for (std::size_t j = 0; j < entry.shard_ids.size(); ++j) {
        shards_[j]->remove_drain_subscriber(entry.shard_ids[j]);
      }
      throw;
    }
  }
  std::lock_guard lk(sub_mu_);
  entry.id = next_subscriber_id_++;
  subscribers_.push_back(std::move(entry));
  return subscribers_.back().id;
}

SubscriberId ShardedTraceServer::add_drain_subscriber(DrainSubscriber subscriber,
                                                      DrainHandoff handoff) {
  if (!subscriber) throw std::logic_error("ShardedTraceServer: null drain subscriber");
  // Every shard shares the one callable: the subscriber must already be
  // thread-safe (cross-shard drains are concurrent), so a shared copy
  // behind shared state is the intended shape.
  auto shared = std::make_shared<DrainSubscriber>(std::move(subscriber));
  return add_subscriber_impl(
      [&shared](std::size_t) {
        return [shared](const SpanBatches& batches) { (*shared)(batches); };
      },
      handoff);
}

SubscriberId ShardedTraceServer::add_drain_subscriber(ShardDrainSubscriber subscriber,
                                                      DrainHandoff handoff) {
  if (!subscriber) throw std::logic_error("ShardedTraceServer: null drain subscriber");
  auto shared = std::make_shared<ShardDrainSubscriber>(std::move(subscriber));
  return add_subscriber_impl(
      [&shared](std::size_t shard) {
        return [shared, shard](const SpanBatches& batches) { (*shared)(shard, batches); };
      },
      handoff);
}

void ShardedTraceServer::remove_drain_subscriber(SubscriberId id) {
  std::vector<SubscriberId> shard_ids;
  {
    std::lock_guard lk(sub_mu_);
    for (std::size_t i = 0; i < subscribers_.size(); ++i) {
      if (subscribers_[i].id == id) {
        shard_ids = std::move(subscribers_[i].shard_ids);
        subscribers_.erase(subscribers_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  // Outside sub_mu_: per-shard removal synchronizes with that shard's
  // in-flight drain, which may itself be mid-callback.
  for (std::size_t i = 0; i < shard_ids.size(); ++i) {
    shards_[i]->remove_drain_subscriber(shard_ids[i]);
  }
}

std::uint64_t ShardedTraceServer::span_count(std::size_t shard) {
  return shards_[shard]->drained_span_count();
}

std::vector<std::uint64_t> ShardedTraceServer::shard_loads() {
  std::vector<std::uint64_t> loads;
  loads.reserve(shards_.size());
  for (auto& shard : shards_) loads.push_back(shard->drained_span_count());
  return loads;
}

std::size_t ShardedTraceServer::live_slot_count() {
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->live_slot_count();
  return total;
}

std::uint64_t ShardedTraceServer::retired_slot_count() {
  std::uint64_t total = 0;
  for (auto& shard : shards_) total += shard->retired_slot_count();
  return total;
}

std::size_t ShardedTraceServer::pooled_slot_count() {
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->pooled_slot_count();
  return total;
}

std::uint64_t ShardedTraceServer::approx_slot_bytes() {
  std::uint64_t total = 0;
  for (auto& shard : shards_) total += shard->approx_slot_bytes();
  return total;
}

TraceMeta ShardedTraceServer::trace_meta() {
  TraceMeta meta;
  meta.dropped_annotations = dropped_annotation_count();  // flushes first
  meta.shard_count = shard_count();
  const auto& table = common::StringTable::global();
  meta.interned_strings = table.size();
  meta.interned_bytes = table.approx_bytes();
  meta.live_slots = live_slot_count();
  meta.retired_slots = retired_slot_count();
  meta.slot_bytes = approx_slot_bytes();
  meta.sampled_kept = sampled_kept_count();
  meta.sampled_dropped = sampled_dropped_count();
  meta.strtab_budget_bytes = table.budget_bytes();
  meta.rejected_interns = table.rejected_interns();
  return meta;
}

void ShardedTraceServer::set_slot_reclamation(bool enabled) noexcept {
  for (auto& shard : shards_) shard->set_slot_reclamation(enabled);
}

void ShardedTraceServer::bind_metrics(metrics::Registry& registry,
                                      const metrics::Labels& labels) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    metrics::Labels shard_labels = labels;
    shard_labels.push_back({"shard", std::to_string(i)});
    shards_[i]->bind_metrics(registry, std::move(shard_labels));
  }
}

void ShardedTraceServer::recycle(SpanBatches batches) {
  const std::size_t n = shards_.size();
  if (n == 1) {
    shards_[0]->recycle(std::move(batches));
    return;
  }
  // Round-robin the buffers so every shard's freelist refills, not just
  // the one the consumer thread would hash to; allocation-free (no
  // per-call scaffolding), matching the single-server recycle path.
  for (std::size_t i = 0; i < batches.size(); ++i) {
    shards_[i % n]->recycle_one(std::move(batches[i]));
  }
  // Re-home the (now empty) outer vector so the next take_batches() merge
  // starts from pre-grown storage.
  batches.clear();
  shards_[0]->recycle(std::move(batches));
}

}  // namespace xsp::trace
