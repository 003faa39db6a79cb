// Measurement primitives of the XSP benchmark: clocks, percentiles with
// the sample-count rule, open-loop schedules, and the benchmark's own span
// recorder with its self-time reduction.
//
// The recorder is deliberately independent of xsp::trace: the benchmark
// measures that layer, so its own spans must not pass through it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

// ------------------------------------------------------------- clocks ----

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set of the whole process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------- percentiles ----

/// Samples strictly beyond the nearest-rank p-quantile of n samples: the
/// rank is ceil(p * n), so n - rank samples lie above it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// A percentile is reportable when at least 10 samples lie beyond it.
inline bool has_tail(std::size_t n, double p) { return samples_beyond(n, p) >= 10; }

/// The highest of the standard percentiles (p99.9, p99, p95, p90, p50)
/// that n samples support under the 10-samples-beyond rule; 0 if none.
inline double highest_supported_percentile(std::size_t n) {
  for (double p : {0.999, 0.99, 0.95, 0.90, 0.50}) {
    if (has_tail(n, p)) return p;
  }
  return 0;
}

/// Nearest-rank percentile. Reorders `v`.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

// ---------------------------------------------------------- open loop ----

/// A fixed-rate open-loop schedule: item i is due at start + i / rate,
/// whether or not earlier items were served on time.
struct Schedule {
  std::int64_t start_ns = 0;
  double rate_per_s = 1;

  [[nodiscard]] std::int64_t due(std::uint64_t i) const {
    return start_ns + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate_per_s);
  }
  /// Items due at or before `t`.
  [[nodiscard]] std::uint64_t due_count(std::int64_t t) const {
    if (t < start_ns) return 0;
    return static_cast<std::uint64_t>(static_cast<double>(t - start_ns) * rate_per_s / 1e9) + 1;
  }
};

/// Drive one open-loop generator until `end_ns`. Each time it wakes, the
/// items that have fallen due since the last wake-up are handed to
/// burst(first, last) in order; between bursts the generator sleeps for
/// `tick_ns` via sleep(). `now` and `sleep` are parameters so tests can
/// drive a fake clock. Returns each item's lateness: the time its burst
/// started minus its due time. Downstream latencies are measured from the
/// due time too, so a stall in one burst is charged to every item it
/// delays, not hidden in the send time.
template <typename Now, typename Sleep, typename Burst>
std::vector<double> run_open_loop(const Schedule& sched, std::int64_t end_ns, std::int64_t tick_ns,
                                  Now&& now, Sleep&& sleep, Burst&& burst) {
  std::vector<double> lateness_ns;
  std::uint64_t next = 0;
  for (std::int64_t t = now(); t < end_ns; t = now()) {
    const std::uint64_t due_now = sched.due_count(t);
    if (due_now > next) {
      for (std::uint64_t i = next; i < due_now; ++i) {
        lateness_ns.push_back(static_cast<double>(t - sched.due(i)));
      }
      burst(next, due_now);
      next = due_now;
    }
    sleep(tick_ns);
  }
  return lateness_ns;
}

// ------------------------------------------------------- span recorder ----

/// One span of the benchmark's own trace: a call the benchmark made into
/// a layer. `group` is shared by the spans of one job or block.
struct BenchSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  const char* name = "";
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::uint64_t items = 0;  ///< work items covered (spans published, ...)
};

/// In-memory span store. Disabled (the untraced run), record() is one
/// branch. Threads append under one mutex; the benchmark records at most
/// a few spans per job or per block of hundreds of published spans.
class SpanRecorder {
 public:
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() {
    std::lock_guard lk(mu_);
    return ++last_id_;
  }
  void record(const BenchSpan& s) {
    std::lock_guard lk(mu_);
    spans_.push_back(s);
  }
  [[nodiscard]] std::vector<BenchSpan> spans() const {
    std::lock_guard lk(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<BenchSpan> spans_;
};

/// RAII span around one call into a layer.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::uint64_t parent = 0, std::uint64_t group = 0,
         std::uint64_t items = 0)
      : rec_(rec), on_(rec.enabled()) {
    if (!on_) return;
    span_.id = rec_.next_id();
    span_.parent = parent;
    span_.group = group;
    span_.name = name;
    span_.items = items;
    span_.begin = now_ns();
  }
  ~Scoped() {
    if (!on_) return;
    span_.end = now_ns();
    rec_.record(span_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder& rec_;
  const bool on_;
  BenchSpan span_;
};

/// Per-name totals after self-time reduction.
struct SelfTotals {
  double self_ns = 0;
  std::uint64_t count = 0;
  std::uint64_t items = 0;
};

/// A span's self time is its duration minus the part of its interval that
/// its children cover; overlapping children count once, and a child's
/// part outside its parent does not count.
inline std::map<std::string, SelfTotals> reduce_self_time(const std::vector<BenchSpan>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const BenchSpan& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.begin, s.end);
  }
  std::map<std::string, SelfTotals> out;
  for (const BenchSpan& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      for (auto& [b, e] : iv) {
        b = std::max(b, s.begin);
        e = std::min(e, s.end);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_b = 0, cur_e = 0;
      bool open = false;
      for (const auto& [b, e] : iv) {
        if (e <= b) continue;
        if (!open || b > cur_e) {
          if (open) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
          open = true;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (open) covered += cur_e - cur_b;
    }
    SelfTotals& t = out[s.name];
    t.self_ns += static_cast<double>(s.end - s.begin - covered);
    t.count += 1;
    t.items += s.items;
  }
  return out;
}

}  // namespace perfbench
