// xsp_perfbench: one command for the XSP benchmark.
//
//   xsp_perfbench --workload zoo_profile|fleet_ingest|live_tracing
//                 --seed N --seconds S --trace 0|1 [--run-dir DIR]
//
// Prints a machine record, the workload's metrics by name with units,
// any failed output check, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, from
// the benchmark's own spans around each call into a layer (written to
// DIR/spans-<workload>-<seed>.csv). Exits 1 when any output check fails,
// 2 on bad usage, 3 when the build is not optimised.
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "placement.hpp"
#include "xsp/common/string_table.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GIT_SHA
#define PERFBENCH_GIT_SHA "unknown"
#endif

namespace perfbench {

const std::vector<std::pair<const char*, const char*>>& e2e_catalog() {
  static const std::vector<std::pair<const char*, const char*>> k = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},     {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"}, {"cpu_ns_per_span", "ns"},
  };
  return k;
}

const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> k = {
      {"models.build_ms", "ms"},
      {"profile.m_ms", "ms"},
      {"profile.ml_ms", "ms"},
      {"profile.mlg_ms", "ms"},
      {"profile.mlgm_ms", "ms"},
      {"profile.merge_ms", "ms"},
      {"profile.layer_us_per_span", "us"},
      {"profile.gpu_us_per_span", "us"},
      {"analysis.a1_ms", "ms"},
      {"analysis.a2_a15_ms", "ms"},
      {"trace.spans_per_job", "count"},
      {"trace.dropped_annotations", "count"},
      {"common.interned_strings", "count"},
      {"common.interned_bytes", "B"},
      {"trace.tags_per_span", "count"},
      {"trace.metrics_per_span", "count"},
      {"trace.remote_publish_ns_per_span", "ns"},
      {"trace.remote_outbox_max_spans", "count"},
      {"trace.remote_dropped", "count"},
      {"trace.remote_reconnects", "count"},
      {"trace.remote_close_ms", "ms"},
      {"net.bytes_per_span", "B"},
      {"net.frames_per_kspan", "count"},
      {"net.strings_reinterned", "count"},
      {"net.connections_errored", "count"},
      {"net.collector_cpu_share", "ratio"},
      {"net.scrape_ms", "ms"},
      {"net.stop_ms", "ms"},
      {"trace.publish_ns_per_span", "ns"},
      {"trace.sampled_keep_ratio", "ratio"},
      {"trace.shard_skew", "ratio"},
      {"trace.live_slots", "count"},
      {"trace.slot_bytes", "B"},
      {"trace.encode_ns_per_span", "ns"},
      {"trace.wire_bytes_per_span", "B"},
      {"analysis.observe_ns_per_span", "ns"},
      {"analysis.snapshot_us", "us"},
      {"gen.late_p99_us", "us"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.layer_sum_share", "ratio"},
  };
  return k;
}

Result::Result() {
  for (const auto& [name, unit] : layer_catalog()) layer[name] = {0, unit};
}

void Result::set_e2e(const std::string& name, double value) {
  for (const auto& [n, unit] : e2e_catalog()) {
    if (name == n) {
      e2e[name] = {value, unit};
      return;
    }
  }
  throw std::logic_error("unknown end-to-end metric " + name);
}

void Result::set_layer(const std::string& name, double value) {
  auto it = layer.find(name);
  if (it == layer.end()) throw std::logic_error("unknown per-layer metric " + name);
  it->second.value = value;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

bool optimised_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "xsp_perfbench: %s\nusage: xsp_perfbench --workload "
               "zoo_profile|fleet_ingest|live_tracing --seed N --seconds S --trace 0|1 "
               "[--run-dir DIR]\n",
               why);
  return 2;
}

void write_spans(const Args& args, const std::vector<BenchSpan>& spans) {
  const std::string path = args.run_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".csv";
  std::ofstream out(path);
  out << "id,parent,group,name,begin_ns,end_ns,items\n";
  for (const BenchSpan& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.group << ',' << s.name << ',' << s.begin << ','
        << s.end << ',' << s.items << '\n';
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = std::stoi(v) != 0;
      else if (a == "--run-dir") args.run_dir = v;
      else return usage(("unknown option " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (args.seconds < 1) return usage("--seconds must be at least 1");

  const std::string machine =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + ", \"cpu\": \"" +
      json_escape(cpu_model()) + "\", \"compiler\": \"" + json_escape(__VERSION__) +
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"optimised\": " +
      (optimised_build() ? "true" : "false") + ", \"git_sha\": \"" PERFBENCH_GIT_SHA "\"}";
  std::printf("machine: %s\n", machine.c_str());
  if (!optimised_build()) {
    std::fprintf(stderr, "xsp_perfbench: refusing to record: this build is not optimised "
                         "(build type " PERFBENCH_BUILD_TYPE ")\n");
    return 3;
  }

  Result (*run)(const Args&, SpanRecorder&) = nullptr;
  if (args.workload == "zoo_profile") run = run_zoo_profile;
  else if (args.workload == "fleet_ingest") run = run_fleet_ingest;
  else if (args.workload == "live_tracing") run = run_live_tracing;
  else return usage("unknown workload");

  ::mkdir(args.run_dir.c_str(), 0755);
  (void)allowed_cores();  // before any thread is placed
  // Workloads enable the recorder for their traced phase only.
  SpanRecorder rec;
  std::printf("workload: %s seed %" PRIu64 " seconds %.1f trace %d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0);
  Result res;
  try {
    res = run(args, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xsp_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (!res.e2e.count("peak_rss_mb")) res.set_e2e("peak_rss_mb", peak_rss_mb());
  const auto& strtab = xsp::common::StringTable::global();
  res.set_layer("common.interned_strings", static_cast<double>(strtab.size()));
  res.set_layer("common.interned_bytes", static_cast<double>(strtab.approx_bytes()));
  if (args.trace) write_spans(args, rec.spans());

  const double error_ratio =
      res.attempted ? static_cast<double>(res.failed) / static_cast<double>(res.attempted) : 1;
  res.add_named("setup_s", res.e2e["setup_s"].value, "s");
  res.add_named("peak_rss_mb", res.e2e["peak_rss_mb"].value, "MB");
  res.add_named("error_ratio", error_ratio, "ratio");
  for (const auto& [name, m] : res.named) {
    std::printf("metric %-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    for (const auto& [name, unit] : layer_catalog()) {
      std::printf("layer  %-34s %.6g %s\n", name, res.layer[name].value, unit);
    }
  }
  for (const auto& f : res.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (res.attempted == 0) res.check(false, "no operation attempted");

  const bool correct = res.failures.empty();
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << res.attempted
     << ", \"failed\": " << res.failed << ", \"metrics\": {";
  const auto& catalog = args.trace ? layer_catalog() : e2e_catalog();
  const auto& values = args.trace ? res.layer : res.e2e;
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const auto it = values.find(name);
    const double v = it == values.end() ? 0 : it->second.value;
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << unit << "\"}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}
