// Shared declarations of the XSP benchmark: command-line arguments, the
// result every workload fills, and the three workload entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for sockets, corpus files and the span dump
  /// (relative to the working directory, so it stays in the checkout).
  std::string run_dir = ".bench_run";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run produces.
///
/// `e2e` holds the end-to-end metrics under the names BENCHMARK.json
/// gates on; every workload reports every one of them (see README.md for
/// what each means per workload). `named` holds the same figures under
/// the workload-specific names a reader expects (profiles_per_s,
/// ingest_lag_p99_ms, ...), printed for people, not gated. `layer` holds
/// the per-layer metrics of a traced run, pre-filled with every catalog
/// name at 0 so a layer a workload never touches reads as zero work.
struct Result {
  std::map<std::string, Metric> e2e;
  std::vector<std::pair<std::string, Metric>> named;
  std::map<std::string, Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  Result();

  /// An output check: a false `ok` fails the run (non-zero exit).
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void set_e2e(const std::string& name, double value);
  void set_layer(const std::string& name, double value);
  void add_named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, {value, unit}});
  }
};

/// Name and unit of every end-to-end and per-layer metric, in report order.
const std::vector<std::pair<const char*, const char*>>& e2e_catalog();
const std::vector<std::pair<const char*, const char*>>& layer_catalog();

Result run_zoo_profile(const Args& args, SpanRecorder& rec);
Result run_fleet_ingest(const Args& args, SpanRecorder& rec);
Result run_live_tracing(const Args& args, SpanRecorder& rec);

/// Per-name self-time totals of the recorded spans.
inline SelfTotals self_of(const std::map<std::string, SelfTotals>& totals,
                          const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? SelfTotals{} : it->second;
}

}  // namespace perfbench
