// Fixed thread placement for the benchmark's workloads.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>

namespace perfbench {

/// Threads are placed on fixed cores, so the same threads share a core on
/// every run and the cost of handing work from thread to thread does not
/// depend on where the scheduler happened to put them (unplaced, CPU per
/// span on fleet_ingest fell into two modes 17% apart on a 4-core VM).
/// Core k is the k-th core the process may use: 0 and 1 run the producer
/// lanes with their sinks' sender threads, 2 the collector loop, 3 the
/// trace servers' collector threads and the reader beside the producers.
enum Core : int { kLane0 = 0, kLane1 = 1, kCollectorLoop = 2, kDrain = 3 };

/// The cores the process may use, read once, before any thread is pinned.
inline const cpu_set_t& allowed_cores() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  return allowed;
}

inline cpu_set_t core_set(int core) {
  const cpu_set_t& allowed = allowed_cores();
  const int n = CPU_COUNT(&allowed);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == core % std::max(n, 1)) {
      CPU_SET(cpu, &set);
      break;
    }
  }
  return set;
}

inline void pin_to(int core) {
  const cpu_set_t set = core_set(core);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Runs its scope on one core, so threads created in it start there.
class PinnedScope {
 public:
  explicit PinnedScope(int core) {
    pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
    pin_to(core);
  }
  ~PinnedScope() { pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_); }
  PinnedScope(const PinnedScope&) = delete;
  PinnedScope& operator=(const PinnedScope&) = delete;

 private:
  cpu_set_t saved_{};
};

}  // namespace perfbench
