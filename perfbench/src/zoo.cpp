// zoo_profile: the paper's automated pipeline over the model zoo.
//
// A closed loop of 2 workers. Each takes the next job (model, framework,
// batch) from two passes, each a seeded permutation, over every TF and
// MXNet model at every batch of the paper's 1..256 grid, runs the full leveled experiment with
// GPU metrics (M, M/L, M/L/G, M/L/G+metrics, merge), then analyses A1-A15.
// It never touches net, and trace is used the per-run way (sync publish,
// take_batches, assemble), so it bypasses transport and streaming publish
// optimisations and isolates models, framework/sim/cupti, profile and
// analysis.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "xsp/analysis/analyses.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/model_profile.hpp"
#include "xsp/sim/gpu_spec.hpp"

namespace perfbench {
namespace {

using namespace xsp;

constexpr int kWorkers = 2;

struct Job {
  const models::ModelInfo* model = nullptr;
  framework::FrameworkKind framework = framework::FrameworkKind::kTFlow;
  std::int64_t batch = 1;
  std::size_t combo = 0;  ///< index into the full job list, for digests
};

std::vector<Job> all_jobs() {
  std::vector<Job> jobs;
  const auto add = [&jobs](const std::vector<models::ModelInfo>& zoo,
                           framework::FrameworkKind fw) {
    for (const auto& m : zoo) {
      for (std::int64_t b = 1; b <= 256; b *= 2) jobs.push_back({&m, fw, b, jobs.size()});
    }
  };
  add(models::tensorflow_models(), framework::FrameworkKind::kTFlow);
  add(models::mxnet_models(), framework::FrameworkKind::kMXLite);
  return jobs;
}

/// Passes over the zoo in one run's schedule, each in its own seeded
/// order. Every job is measured once per pass and reported at its fastest,
/// so a burst of load from another tenant must hit a job in every pass to
/// move the result.
constexpr int kPasses = 2;

std::vector<Job> schedule(std::uint64_t seed) {
  const std::vector<Job> zoo = all_jobs();
  std::vector<Job> jobs;
  std::mt19937_64 rng(seed);
  for (int p = 0; p < kPasses; ++p) {
    std::vector<Job> pass = zoo;
    std::shuffle(pass.begin(), pass.end(), rng);
    jobs.insert(jobs.end(), pass.begin(), pass.end());
  }
  return jobs;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}
std::uint64_t mix_d(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

/// What one finished job leaves behind.
struct JobRecord {
  std::size_t index = 0;  ///< position in the run's schedule
  std::int64_t end_ns = 0;
  std::int64_t host_ns = 0;
  std::int64_t cpu_ns = 0;  ///< the worker thread's CPU time over the job
  std::uint64_t spans = 0;      ///< spans assembled over the 4 leveled runs
  std::uint64_t mlg_spans = 0;  ///< of which in the M/L/G run
};

/// Analyses A2-A15 over one merged profile; folds every result into the
/// job digest so nothing is skipped and repeats can be compared.
std::uint64_t analyses_a2_a15(const profile::ModelProfile& p, const sim::GpuSpec& gpu,
                              std::uint64_t h) {
  for (const auto& r : analysis::a2_layer_info(p)) h = mix_d(h, r.latency_ms);
  for (double v : analysis::a3_layer_latency_us(p)) h = mix_d(h, v);
  for (double v : analysis::a4_layer_alloc_mb(p)) h = mix_d(h, v);
  for (const auto& r : analysis::layer_type_aggregation(p)) h = mix_d(h, r.latency_pct);
  for (const auto& r : analysis::a8_kernel_info(p, gpu)) h = mix_d(h, r.tflops);
  for (const auto& r : analysis::a9_kernel_roofline(p, gpu)) h = mix_d(h, r.arithmetic_intensity);
  for (const auto& r : analysis::a10_kernel_by_name(p, gpu)) h = mix_d(h, r.latency_pct);
  for (const auto& r : analysis::a11_kernel_by_layer(p, gpu)) h = mix_d(h, r.kernel_latency_ms);
  const auto a12 = analysis::a12_layer_gpu_metrics(p);
  for (double v : a12.gflops) h = mix_d(h, v);
  for (const auto& r : analysis::a13_gpu_vs_nongpu(p)) h = mix_d(h, r.gpu_pct);
  for (const auto& r : analysis::a14_layer_roofline(p, gpu)) h = mix_d(h, r.tflops);
  const auto a15 = analysis::a15_model_aggregate(p, gpu);
  return mix_d(h, a15.kernel_latency_ms);
}

/// Shared state of one phase's closed loop.
struct Phase {
  const std::vector<Job>* jobs = nullptr;
  const sim::GpuSpec* gpu = nullptr;
  bool traced = false;
  SpanRecorder* rec = nullptr;

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<JobRecord> done;
  std::unordered_map<std::size_t, std::uint64_t>* digests = nullptr;
  std::vector<std::string> failures;
  std::uint64_t failed = 0;  ///< jobs that threw or failed a check
  std::uint64_t threw = 0;   ///< jobs that threw, so never reached `done`
  std::uint64_t dropped_annotations = 0;
  // Leveled-subtraction totals (host time and spans per level).
  std::int64_t level_ns[4] = {0, 0, 0, 0};
  std::uint64_t level_spans[4] = {0, 0, 0, 0};
};

/// One job. Untraced it is exactly the pipeline a user runs:
/// LeveledRunner::run, then A1-A15. Traced, the same calls are made one
/// level at a time (Session::profile per level, then merge_runs, as
/// LeveledRunner::run does internally) so each gets its own span.
void run_job(Phase& ph, std::size_t index) {
  const Job& job = (*ph.jobs)[index % ph.jobs->size()];
  const std::uint64_t group = index + 1;
  SpanRecorder& rec = *ph.rec;
  profile::LeveledResult r;
  std::uint64_t digest = 0;
  std::int64_t t_level[4] = {0, 0, 0, 0};

  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = thread_cpu_ns();
  {
    Scoped job_span(rec, "zoo.job", 0, group);
    const profile::LeveledRunner runner(*ph.gpu, job.framework);
    framework::Graph graph;
    {
      Scoped s(rec, "models.build", job_span.id(), group);
      graph = job.model->build(job.batch, runner.decompose_batchnorm());
    }
    if (!ph.traced) {
      r = runner.run(graph, /*gpu_metrics=*/true);
    } else {
      const profile::ProfileOptions levels[4] = {
          profile::ProfileOptions::model_only(), profile::ProfileOptions::model_layer(),
          profile::ProfileOptions::full(false), profile::ProfileOptions::full(true)};
      const char* names[4] = {"profile.m", "profile.ml", "profile.mlg", "profile.mlgm"};
      profile::RunTrace* outs[4] = {&r.m, &r.ml, &r.mlg, &r.mlgm};
      for (int l = 0; l < 4; ++l) {
        const std::int64_t b = now_ns();
        Scoped s(rec, names[l], job_span.id(), group);
        profile::Session session(*ph.gpu, job.framework);
        *outs[l] = session.profile(graph, levels[l]);
        t_level[l] = now_ns() - b;
      }
      Scoped s(rec, "profile.merge", job_span.id(), group);
      r.profile = profile::merge_runs(r.m, r.ml, r.mlgm, graph.model_name, ph.gpu->name,
                                      framework::framework_name(job.framework), graph.batch());
      r.profile.gpu_profiling_overhead = r.mlg.model_latency - r.ml.model_latency;
    }
    {
      Scoped s(rec, "analysis.a1", job_span.id(), group);
      const auto a1 = analysis::a1_model_information(
          {{job.batch, to_ms(r.profile.model_latency)}});
      digest = mix_d(digest, a1.max_throughput);
    }
    {
      Scoped s(rec, "analysis.a2_a15", job_span.id(), group);
      digest = analyses_a2_a15(r.profile, *ph.gpu, digest);
    }
  }
  const std::int64_t host_ns = now_ns() - t0;
  const std::int64_t cpu_ns = thread_cpu_ns() - c0;

  // Output checks, outside the timed job.
  std::vector<std::string> bad;
  const std::string what = job.model->name + "@" + std::to_string(job.batch) + "/" +
                           framework::framework_name(job.framework);
  if (!(r.m.model_latency <= r.ml.model_latency && r.ml.model_latency <= r.mlg.model_latency)) {
    bad.push_back("leveled ordering M <= M/L <= M/L/G violated: " + what);
  }
  if (r.profile.kernels.empty()) bad.push_back("no kernels profiled: " + what);
  for (const auto& k : r.profile.kernels) {
    if (k.layer_index < 0) {
      bad.push_back("kernel without a layer: " + what);
      break;
    }
  }
  const std::uint64_t spans =
      r.m.timeline.size() + r.ml.timeline.size() + r.mlg.timeline.size() + r.mlgm.timeline.size();
  digest = mix(digest, static_cast<std::uint64_t>(r.profile.model_latency));
  for (const auto& l : r.profile.layers) digest = mix(digest, static_cast<std::uint64_t>(l.latency));
  for (const auto& k : r.profile.kernels) {
    digest = mix(mix(digest, k.name.raw()), static_cast<std::uint64_t>(k.latency));
  }

  std::lock_guard lk(ph.mu);
  const auto [it, inserted] = ph.digests->emplace(job.combo, digest);
  if (!inserted && it->second != digest) bad.push_back("digest differs across repeats: " + what);
  ph.done.push_back({index, now_ns(), host_ns, cpu_ns, spans, r.mlg.timeline.size()});
  ph.dropped_annotations += r.m.dropped_annotations + r.ml.dropped_annotations +
                            r.mlg.dropped_annotations + r.mlgm.dropped_annotations;
  const profile::RunTrace* runs[4] = {&r.m, &r.ml, &r.mlg, &r.mlgm};
  for (int l = 0; l < 4; ++l) {
    ph.level_ns[l] += t_level[l];
    ph.level_spans[l] += runs[l]->timeline.size();
  }
  if (!bad.empty()) {
    ++ph.failed;
    ph.failures.insert(ph.failures.end(), bad.begin(), bad.end());
  }
}

struct PhaseResult {
  std::vector<JobRecord> done;  ///< in completion order
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// Run the closed loop for `seconds`, and on until `min_jobs` jobs have
/// completed (at most three times as long).
PhaseResult run_phase(Phase& ph, double seconds, std::size_t min_jobs) {
  const std::int64_t start = now_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t window_end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t hard_end = start + static_cast<std::int64_t>(3 * seconds * 1e9);
  const auto more = [&ph, window_end, hard_end, min_jobs] {
    const std::int64_t t = now_ns();
    if (t < window_end) return true;
    std::lock_guard lk(ph.mu);
    return ph.done.size() < min_jobs && t < hard_end;
  };
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&ph, &errors, &more, w] {
      try {
        while (more()) run_job(ph, ph.next.fetch_add(1));
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (auto& e : errors) {
    if (e) {
      ++ph.failed;
      ++ph.threw;
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        ph.failures.push_back(std::string("job threw: ") + ex.what());
      }
    }
  }
  PhaseResult out;
  out.start_ns = start;
  out.wall_ns = now_ns() - start;
  out.cpu_ns = process_cpu_ns() - cpu0;
  out.done = ph.done;
  return out;
}

}  // namespace

Result run_zoo_profile(const Args& args, SpanRecorder& rec) {
  Result res;
  const sim::GpuSpec& gpu = sim::tesla_v100();
  std::unordered_map<std::size_t, std::uint64_t> digests;

  // Set-up, nine times: the job schedule, every zoo graph built once (the
  // registry load a zoo pipeline starts with) and one warm-up job that
  // pays first-run costs. The median of the set-up thread's CPU time is
  // reported: wall time on a shared host swings with other tenants' load.
  std::vector<double> setups;
  std::vector<Job> jobs;
  for (int i = 0; i < 9; ++i) {
    const std::int64_t t0 = thread_cpu_ns();
    jobs = schedule(args.seed);
    std::size_t layers = 0;
    for (const auto& m : models::tensorflow_models()) layers += m.build(1, true).layers.size();
    for (const auto& m : models::mxnet_models()) layers += m.build(1, false).layers.size();
    res.check(layers > 0, "the model zoo built no layers");
    const auto warm_job = std::find_if(jobs.begin(), jobs.end(), [](const Job& j) {
      return j.model->name == "MLPerf_MobileNet_v1" && j.batch == 1 &&
             j.framework == framework::FrameworkKind::kTFlow;
    });
    std::vector<Job> one{*warm_job};
    Phase warm;
    warm.jobs = &one;
    warm.gpu = &gpu;
    warm.rec = &rec;
    warm.digests = &digests;
    run_job(warm, 0);
    res.check(warm.failures.empty(), "warm-up job failed its checks");
    setups.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e9);
  }
  res.set_e2e("setup_s", median(setups));

  const auto make_phase = [&](Phase& ph, bool traced) {
    ph.jobs = &jobs;
    ph.gpu = &gpu;
    ph.traced = traced;
    ph.rec = &rec;
    ph.digests = &digests;
  };

  // A traced run first measures a third of its time untraced, so the
  // tracing overhead and the layer sum are compared on the same jobs.
  Phase plain;
  make_phase(plain, false);
  const PhaseResult pr = run_phase(plain, args.trace ? args.seconds / 3 : args.seconds,
                                   args.trace ? 0 : jobs.size());
  res.attempted += pr.done.size() + plain.threw;
  res.failed += plain.failed;
  for (auto& f : plain.failures) res.check(false, f);

  // Throughput and latency over the first jobs.size() completions: the
  // passes over the zoo whatever the seed, so every seed measures the same
  // job mix in a different order. Jobs still in flight when the last pass
  // ends (at most one per worker) repeat a job of the first. Job latency
  // is the worker's CPU time, the fastest of each job's runs: on a shared
  // host, wall time also counts the time other tenants held the core.
  const std::size_t n = std::min(pr.done.size(), args.trace ? pr.done.size() : jobs.size());
  res.check(n == pr.done.size() || n == jobs.size(),
            "the passes over the zoo did not finish; raise --seconds");
  std::unordered_map<std::size_t, double> fastest;
  std::vector<double> wall_ms;
  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& j = pr.done[i];
    const double cpu_ms = static_cast<double>(j.cpu_ns) / 1e6;
    const std::size_t combo = jobs[j.index % jobs.size()].combo;
    const auto [it, inserted] = fastest.emplace(combo, cpu_ms);
    if (!inserted) it->second = std::min(it->second, cpu_ms);
    wall_ms.push_back(static_cast<double>(j.host_ns) / 1e6);
  }
  std::vector<double> ms;
  for (const auto& [combo, v] : fastest) ms.push_back(v);
  std::uint64_t spans = 0, mlg_spans = 0;
  std::int64_t job_ns = 0;
  for (const auto& j : pr.done) {
    spans += j.spans;
    mlg_spans += j.mlg_spans;
    job_ns += j.host_ns;
  }
  res.check(has_tail(ms.size(), 0.95),
            "too few jobs for p95 (" + std::to_string(ms.size()) + "); raise --seconds");
  const double pass_s =
      n ? static_cast<double>(pr.done[n - 1].end_ns - pr.start_ns) / 1e9 : 1;
  const double rate = static_cast<double>(n) / pass_s;
  const double p50 = percentile(ms, 0.50);
  const double p95 = percentile(ms, 0.95);
  const double cpu_per_span = spans ? static_cast<double>(pr.cpu_ns) / static_cast<double>(spans) : 0;
  res.set_e2e("latency_p50_ms", p50);
  res.set_e2e("latency_tail_ms", p95);
  res.set_e2e("cpu_ns_per_span", cpu_per_span);
  res.add_named("profiles_per_s", rate, "1/s");
  res.add_named("profile_p50_ms", p50, "ms");
  res.add_named("profile_p95_ms", p95, "ms");
  res.add_named("profile_wall_p50_ms", percentile(wall_ms, 0.5), "ms");
  res.add_named("cpu_ns_per_span", cpu_per_span, "ns");
  // What one worker would stream if it exported its M/L/G run: the source
  // of the streaming workloads' per-producer rate.
  res.add_named("mlg_spans_per_worker_s",
                static_cast<double>(mlg_spans) / (static_cast<double>(job_ns) / 1e9), "1/s");
  std::printf("zoo_profile: %zu jobs (%zu distinct, p%.1f supported), %" PRIu64
              " spans, %d workers\n",
              pr.done.size(), digests.size(), 100 * highest_supported_percentile(ms.size()), spans,
              kWorkers);

  if (!args.trace) return res;

  // Traced: the first third above warmed every cache on the schedule's
  // first jobs; now the same jobs run traced, then untraced again, and
  // the two are compared job for job.
  Phase traced;
  make_phase(traced, true);
  rec.enable(true);
  const PhaseResult tr = run_phase(traced, args.seconds / 3, 0);
  rec.enable(false);
  Phase again;
  make_phase(again, false);
  const PhaseResult ag = run_phase(again, args.seconds / 3, 0);
  for (Phase* ph : {&traced, &again}) {
    res.failed += ph->failed;
    for (auto& f : ph->failures) res.check(false, f);
  }
  res.attempted += tr.done.size() + traced.threw + ag.done.size() + again.threw;

  const auto totals = reduce_self_time(rec.spans());
  const double jobs_n = static_cast<double>(std::max<std::size_t>(tr.done.size(), 1));
  const auto per_job_ms = [&](const char* name) {
    return self_of(totals, name).self_ns / 1e6 / jobs_n;
  };
  res.set_layer("models.build_ms", per_job_ms("models.build"));
  res.set_layer("profile.m_ms", per_job_ms("profile.m"));
  res.set_layer("profile.ml_ms", per_job_ms("profile.ml"));
  res.set_layer("profile.mlg_ms", per_job_ms("profile.mlg"));
  res.set_layer("profile.mlgm_ms", per_job_ms("profile.mlgm"));
  res.set_layer("profile.merge_ms", per_job_ms("profile.merge"));
  res.set_layer("analysis.a1_ms", per_job_ms("analysis.a1"));
  res.set_layer("analysis.a2_a15_ms", per_job_ms("analysis.a2_a15"));
  const auto per_span_us = [&](int lo, int hi) {
    const auto dn = static_cast<double>(traced.level_spans[hi] - traced.level_spans[lo]);
    return dn > 0 ? static_cast<double>(traced.level_ns[hi] - traced.level_ns[lo]) / 1e3 / dn : 0;
  };
  res.set_layer("profile.layer_us_per_span", per_span_us(0, 1));
  res.set_layer("profile.gpu_us_per_span", per_span_us(1, 2));
  std::uint64_t traced_spans = 0;
  for (const auto& j : tr.done) traced_spans += j.spans;
  res.set_layer("trace.spans_per_job", static_cast<double>(traced_spans) / jobs_n);
  res.set_layer("trace.dropped_annotations", static_cast<double>(traced.dropped_annotations));

  // Jobs run both traced and untraced: the layer spans' sum against the
  // untraced host time, and the traced host time against it.
  std::unordered_map<std::size_t, std::int64_t> untraced_ns;
  for (const auto& j : ag.done) untraced_ns[j.index] = j.host_ns;
  std::unordered_map<std::uint64_t, bool> shared;  // by span group (index + 1)
  double untraced_sum = 0, traced_sum = 0, parts_sum = 0;
  for (const auto& j : tr.done) {
    const auto it = untraced_ns.find(j.index);
    if (it == untraced_ns.end()) continue;
    shared[j.index + 1] = true;
    untraced_sum += static_cast<double>(it->second);
    traced_sum += static_cast<double>(j.host_ns);
  }
  for (const auto& s : rec.spans()) {
    if (s.parent != 0 && shared.count(s.group)) parts_sum += static_cast<double>(s.end - s.begin);
  }
  res.set_layer("bench.layer_sum_share", untraced_sum > 0 ? parts_sum / untraced_sum : 0);
  res.set_layer("bench.trace_overhead_pct",
                untraced_sum > 0 ? (traced_sum - untraced_sum) / untraced_sum * 100 : 0);
  return res;
}

}  // namespace perfbench
