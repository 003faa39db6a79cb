// The kAsync collector's wake rule: the first batch sealed while the
// collector sleeps wakes it, with no timer behind it. These tests never
// call flush() before checking delivery, so every span they count reached
// the subscriber through a collector pass that a seal (or a producer
// thread's exit) woke.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void publish_spans(TraceServer& server, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    Span s;
    s.id = server.next_span_id();
    s.begin = static_cast<TimePoint>(i);
    s.end = static_cast<TimePoint>(i + 1);
    server.publish(std::move(s));
  }
}

/// Poll `pred` until it holds or `timeout` passes.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (!pred()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(CollectorWake, FirstSealedBatchReachesObserverWithinMilliseconds) {
  // Each trial seals one batch right after the previous one was delivered.
  // A collector that slept on a 50 ms timer would deliver it ~50 ms later;
  // a seal-driven wake is a thread handoff. 20 ms leaves room for
  // scheduler delay on a loaded machine.
  std::atomic<std::uint64_t> delivered{0};  // outlives the server's collector
  std::atomic<std::int64_t> delivered_at_ns{0};
  TraceServer server(PublishMode::kAsync);
  server.add_drain_subscriber([&](const SpanBatches& batches) {
    std::uint64_t n = 0;
    for (const auto& batch : batches) n += batch.size();
    delivered_at_ns.store(now_ns(), std::memory_order_relaxed);
    delivered.fetch_add(n, std::memory_order_release);
  });

  constexpr int kTrials = 20;
  constexpr std::size_t kBatch = TraceServer::kBatchCapacity;
  std::vector<double> ms;
  for (int trial = 1; trial <= kTrials; ++trial) {
    // All but the last span fill the batch; the last one seals it.
    publish_spans(server, kBatch - 1);
    const std::int64_t sealed_at_ns = now_ns();
    publish_spans(server, 1);
    ASSERT_TRUE(wait_until(
        [&] { return delivered.load(std::memory_order_acquire) == trial * kBatch; },
        std::chrono::seconds(5)))
        << "trial " << trial << ": sealed batch never delivered without flush()";
    ms.push_back(static_cast<double>(delivered_at_ns.load(std::memory_order_relaxed) -
                                     sealed_at_ns) /
                 1e6);
  }
  std::sort(ms.begin(), ms.end());
  EXPECT_LT(ms[kTrials / 2], 20.0) << "median seal-to-delivery over " << kTrials
                                   << " trials, max " << ms.back() << " ms";
}

/// A kConsume subscriber that counts (bounded memory at any volume) and
/// spends `pass_cost` per drain pass, as an exporting subscriber does.
struct CountingConsumer {
  TraceServer& server;
  std::atomic<std::uint64_t> delivered{0};
  SubscriberId id = 0;

  explicit CountingConsumer(TraceServer& s, std::chrono::microseconds pass_cost = {})
      : server(s) {
    id = server.add_drain_subscriber(
        [this, pass_cost](const SpanBatches& batches) {
          std::uint64_t n = 0;
          for (const auto& batch : batches) n += batch.size();
          if (pass_cost.count() > 0) std::this_thread::sleep_for(pass_cost);
          delivered.fetch_add(n, std::memory_order_relaxed);
        },
        DrainHandoff::kConsume);
  }
  // Detaching synchronizes with in-flight drains: no pass calls us after.
  ~CountingConsumer() { server.remove_drain_subscriber(id); }
  CountingConsumer(const CountingConsumer&) = delete;
  CountingConsumer& operator=(const CountingConsumer&) = delete;

  /// Wait up to 10 s, without flush(), for the count to reach `expected`.
  [[nodiscard]] bool reaches(std::uint64_t expected) {
    const bool ok = wait_until(
        [&] { return delivered.load(std::memory_order_relaxed) == expected; },
        std::chrono::seconds(10));
    EXPECT_TRUE(ok) << "delivered " << delivered.load() << " of " << expected
                    << " spans without flush(): a wakeup was lost";
    return ok;
  }
};

/// 4 producer lanes, each running `threads_per_lane` successive threads
/// that publish `per_thread` spans and exit. Returns the spans published.
std::uint64_t publish_in_lanes(TraceServer& server, int threads_per_lane,
                               std::size_t per_thread) {
  constexpr int kLanes = 4;
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&] {
      for (int t = 0; t < threads_per_lane; ++t) {
        std::thread([&] { publish_spans(server, per_thread); }).join();
      }
    });
  }
  for (auto& lane : lanes) lane.join();
  return static_cast<std::uint64_t>(kLanes) * threads_per_lane * per_thread;
}

TEST(CollectorWake, ConcurrentSealsNeverLoseAWakeup) {
  // 4 long-lived producers x 1000 full batches, in 50 rounds that each end
  // quiet until every sealed span is delivered. Whole batches only, so
  // every span travels by seal -> wake -> drain. Slow passes make seals
  // land while a pass is running, after it swept their slot: where a wake
  // cleared at the wrong moment would strand a round's last batches.
  constexpr int kProducers = 4;
  constexpr int kRounds = 50;
  constexpr std::size_t kPerRound = 20 * TraceServer::kBatchCapacity;
  TraceServer server(PublishMode::kAsync);
  CountingConsumer consumer(server, std::chrono::microseconds(200));
  std::barrier sync(kProducers + 1);
  std::atomic<bool> failed{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();
        if (failed.load()) return;
        publish_spans(server, kPerRound);
        sync.arrive_and_wait();
      }
    });
  }
  for (int round = 1; round <= kRounds; ++round) {
    sync.arrive_and_wait();  // start the round
    sync.arrive_and_wait();  // every producer has sealed its batches
    if (!consumer.reaches(std::uint64_t{kProducers} * kPerRound * round)) {
      failed.store(true);
      if (round < kRounds) sync.arrive_and_wait();  // release the producers
      break;
    }
  }
  for (auto& t : producers) t.join();
}

TEST(CollectorWake, ProducerThreadsExitingMidStreamWakeTheCollector) {
  TraceServer server(PublishMode::kAsync);
  CountingConsumer consumer(server);
  // Each thread seals 100 full batches and exits with a 37-span partial
  // one, which only the retirement sweep of a drain pass takes.
  std::uint64_t published =
      publish_in_lanes(server, 10, 100 * TraceServer::kBatchCapacity + 37);
  ASSERT_TRUE(consumer.reaches(published));
  // Then, on a quiet server, threads that never seal: only the wake each
  // thread's exit sends can start the pass that retires its slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  published += publish_in_lanes(server, 1, 37);
  EXPECT_TRUE(consumer.reaches(published));
}

}  // namespace
}  // namespace xsp::trace
