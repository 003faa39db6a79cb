// OnlineAnalyzer sampling-awareness suite.
//
// Three claims from the sampling layer land here:
//   1. Horvitz-Thompson rescaling: feeding the analyzer only the spans a
//      Sampler admits, with set_sampler() attached, yields est_count /
//      est_total_ns / est_spans within a few percent of an oracle
//      analyzer that saw every span — and degenerates to est == exact
//      when no sampler is attached.
//   2. SpaceSaving top-k: with max_kernel_rows set, true heavy hitters
//      are guaranteed present, the row count never exceeds the cap, and
//      every surviving row's true count lies in
//      [count - count_error, count].
//   3. Edge-triggered alerts: one callback per threshold excursion, with
//      re-arm on recovery and an unregistration path.
#include "xsp/analysis/online.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xsp/profile/span_keys.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/span.hpp"

namespace xsp::analysis {
namespace {

using profile::span_keys;
using trace::Sampler;
using trace::SamplerOptions;
using trace::Span;
using trace::SpanBatch;
using trace::SpanBatches;
using trace::SpanKind;

Span kernel_span(std::uint64_t id, TimePoint begin, Ns dur, StrId name) {
  Span s;
  s.id = id;
  s.level = trace::kKernelLevel;
  s.kind = SpanKind::kExecution;  // what the analyzer classifies as a kernel
  s.name = name;
  s.tracer = "cupti";
  s.begin = begin;
  s.end = begin + dur;
  s.correlation_id = id;  // one request per span: iid head-sampling draws
  s.tags.set(span_keys().kind, span_keys().kind_kernel);
  return s;
}

void feed(OnlineAnalyzer& analyzer, SpanBatch batch) {
  SpanBatches batches;
  batches.push_back(std::move(batch));
  analyzer.observe(batches);
}

TEST(OnlineSampling, EstimatesEqualExactValuesWithoutASampler) {
  OnlineAnalyzer analyzer;
  SpanBatch batch;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    batch.push_back(kernel_span(i, i * 100, 90, "gemm"));
  }
  feed(analyzer, std::move(batch));

  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_DOUBLE_EQ(snap.est_spans, static_cast<double>(snap.spans));
  EXPECT_DOUBLE_EQ(snap.sampling_rate, 1.0);
  ASSERT_EQ(snap.kernels.size(), 1u);
  const OnlineAggregate& row = snap.kernels[0];
  EXPECT_DOUBLE_EQ(row.est_count, static_cast<double>(row.count));
  EXPECT_DOUBLE_EQ(row.est_total_ns, static_cast<double>(row.total_ns));
  EXPECT_EQ(row.count_error, 0u);
}

TEST(OnlineSampling, RescaledEstimatesTrackAnUnsampledOracle) {
  // The acceptance shape: one synthetic stream, two analyzers. The oracle
  // sees everything; the sampled analyzer sees only what a rate-0.25
  // sampler admits, plus the sampler itself for HT weighting. The seed is
  // fixed, so this is a deterministic check, not a flaky statistical one.
  SamplerOptions sopts;
  sopts.rate = 0.25;
  auto sampler = std::make_shared<const Sampler>(sopts);

  OnlineAnalyzer oracle;
  OnlineAnalyzer sampled;
  sampled.set_sampler(sampler);

  const StrId names[4] = {"gemm", "conv", "relu", "softmax"};
  constexpr std::uint64_t kSpans = 20000;
  SpanBatch all;
  SpanBatch admitted;
  for (std::uint64_t i = 1; i <= kSpans; ++i) {
    // Durations vary per key so est_total_ns is not just est_count * c.
    const Ns dur = 50 + (i % 7) * 10;
    const Span s = kernel_span(i, i * 1000, dur, names[i % 4]);
    all.push_back(s);
    if (sampler->admit(s)) admitted.push_back(s);
  }
  feed(oracle, std::move(all));
  feed(sampled, std::move(admitted));

  const OnlineSnapshot truth = oracle.snapshot();
  const OnlineSnapshot est = sampled.snapshot();
  EXPECT_DOUBLE_EQ(est.sampling_rate, 0.25);
  EXPECT_LT(est.spans, truth.spans);  // sampling actually thinned the stream
  EXPECT_NEAR(est.est_spans, static_cast<double>(truth.spans),
              0.05 * static_cast<double>(truth.spans));

  ASSERT_EQ(truth.kernels.size(), 4u);
  ASSERT_EQ(est.kernels.size(), 4u);
  std::map<std::uint32_t, const OnlineAggregate*> by_key;
  for (const auto& row : est.kernels) by_key[row.key.raw()] = &row;
  for (const auto& exact : truth.kernels) {
    ASSERT_TRUE(by_key.count(exact.key.raw()));
    const OnlineAggregate& row = *by_key[exact.key.raw()];
    // Per-key samples are ~5000 spans at rate 0.25: relative sigma of the
    // HT estimator is sqrt((1-r)/(r n)) ~ 2.5%, so 10% is a safe fixed
    // bound for the pinned seed.
    EXPECT_NEAR(row.est_count, static_cast<double>(exact.count),
                0.10 * static_cast<double>(exact.count))
        << "key " << exact.key.raw();
    EXPECT_NEAR(row.est_total_ns, static_cast<double>(exact.total_ns),
                0.10 * static_cast<double>(exact.total_ns))
        << "key " << exact.key.raw();
    // Exact fields stay what was observed — rescaling never rewrites them.
    EXPECT_LT(row.count, exact.count);
  }
}

TEST(OnlineSampling, ForceAdmittedTailsCarryWeightOne) {
  // A tail-kept span has inclusion probability 1; weighting it by 1/rate
  // would overcount. One long span among rejected shorts must contribute
  // exactly 1 to est_spans.
  SamplerOptions sopts;
  sopts.rate = 0.0;
  sopts.tail_keep_ns = 1000;
  auto sampler = std::make_shared<const Sampler>(sopts);

  OnlineAnalyzer analyzer;
  analyzer.set_sampler(sampler);
  SpanBatch admitted;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    const Span s = kernel_span(i, i * 10000, i == 50 ? 5000 : 100, "gemm");
    if (sampler->admit(s)) admitted.push_back(s);
  }
  ASSERT_EQ(admitted.size(), 1u);
  feed(analyzer, std::move(admitted));
  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_EQ(snap.spans, 1u);
  EXPECT_DOUBLE_EQ(snap.est_spans, 1.0);
}

TEST(OnlineSampling, AccountingInjectionSurfacesInSnapshotAndJson) {
  OnlineAnalyzer analyzer;
  analyzer.set_sampling_accounting(750, 250);
  SpanBatch batch;
  batch.push_back(kernel_span(1, 0, 90, "gemm"));
  feed(analyzer, std::move(batch));

  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_EQ(snap.sampled_kept, 750u);
  EXPECT_EQ(snap.sampled_dropped, 250u);

  const std::string json = online_summary_json(snap);
  EXPECT_NE(json.find("\"est_spans\":"), std::string::npos);
  EXPECT_NE(json.find("\"sampling_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"sampled_kept\":750"), std::string::npos);
  EXPECT_NE(json.find("\"sampled_dropped\":250"), std::string::npos);
  EXPECT_NE(json.find("\"kernel_evictions\":"), std::string::npos);
  EXPECT_NE(json.find("\"est_count\":"), std::string::npos);
  EXPECT_NE(json.find("\"count_error\":"), std::string::npos);

  // reset() starts a fresh epoch for the injected counters too.
  analyzer.reset();
  EXPECT_EQ(analyzer.snapshot().sampled_kept, 0u);
  EXPECT_EQ(analyzer.snapshot().sampled_dropped, 0u);
}

// --- SpaceSaving top-k -----------------------------------------------------

TEST(OnlineSampling, BoundedKernelTableKeepsHeavyHittersWithinErrorBounds) {
  constexpr std::size_t kCap = 8;
  OnlineAnalyzerOptions opts;
  opts.max_kernel_rows = kCap;
  OnlineAnalyzer analyzer(opts);

  // Skewed stream: 4 heavy kernels dominate, 64 distinct rare kernels
  // churn through the remaining slots. True counts are tracked exactly.
  std::map<std::string, std::uint64_t> true_counts;
  SpanBatch batch;
  std::uint64_t id = 0;
  for (int round = 0; round < 200; ++round) {
    for (int h = 0; h < 4; ++h) {
      const std::string name = "heavy_" + std::to_string(h);
      ++id;
      batch.push_back(kernel_span(id, id * 100, 90, StrId(name)));
      ++true_counts[name];
    }
    // One rare kernel per round, cycling over 64 names.
    const std::string rare = "rare_" + std::to_string(round % 64);
    ++id;
    batch.push_back(kernel_span(id, id * 100, 90, StrId(rare)));
    ++true_counts[rare];
  }
  feed(analyzer, std::move(batch));

  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_LE(snap.kernels.size(), kCap);
  EXPECT_EQ(snap.kernel_row_limit, kCap);
  EXPECT_GT(snap.kernel_evictions, 0u);

  std::map<std::string, const OnlineAggregate*> rows;
  for (const auto& row : snap.kernels) rows[std::string(row.key.view())] = &row;
  for (int h = 0; h < 4; ++h) {
    const std::string name = "heavy_" + std::to_string(h);
    // Heavy hitters (count 200 >> observed/cap = 125) must be present.
    ASSERT_TRUE(rows.count(name)) << name << " evicted from the top-k table";
    const OnlineAggregate& row = *rows[name];
    const std::uint64_t truth = true_counts[name];
    // SpaceSaving overestimates: truth in [count - count_error, count].
    EXPECT_GE(row.count, truth) << name;
    EXPECT_LE(row.count - row.count_error, truth) << name;
  }
  // The error bound holds for every surviving row, including takeovers.
  for (const auto& row : snap.kernels) {
    const std::uint64_t truth = true_counts[std::string(row.key.view())];
    EXPECT_GE(row.count, truth);
    EXPECT_LE(row.count - row.count_error, truth);
  }
}

TEST(OnlineSampling, UnboundedTableStaysExactAndEvictionFree) {
  OnlineAnalyzer analyzer;  // max_kernel_rows = 0
  SpanBatch batch;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    batch.push_back(kernel_span(i, i * 100, 90, StrId("k" + std::to_string(i % 50))));
  }
  feed(analyzer, std::move(batch));
  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_EQ(snap.kernels.size(), 50u);
  EXPECT_EQ(snap.kernel_evictions, 0u);
  EXPECT_EQ(snap.kernel_row_limit, 0u);
  for (const auto& row : snap.kernels) {
    EXPECT_EQ(row.count, 6u);
    EXPECT_EQ(row.count_error, 0u);
  }
}

// --- edge-triggered alerts -------------------------------------------------

TEST(OnlineSampling, AlertsFireOncePerExcursionAndReArmOnRecovery) {
  OnlineAnalyzer analyzer;
  int fired = 0;
  double last_value = 0;
  AlertRule rule;
  rule.name = "span_flood";
  rule.value = [](const OnlineSnapshot& s) { return static_cast<double>(s.spans); };
  rule.threshold = 10.0;
  rule.fire_above = true;
  const AlertId id = analyzer.add_alert(
      rule, [&](const AlertRule& r, double v, const OnlineSnapshot&) {
        EXPECT_EQ(r.name, "span_flood");
        ++fired;
        last_value = v;
      });
  ASSERT_NE(id, 0u);

  // Below threshold: armed, silent.
  SpanBatch small;
  for (std::uint64_t i = 1; i <= 5; ++i) small.push_back(kernel_span(i, i * 100, 90, "gemm"));
  feed(analyzer, std::move(small));
  EXPECT_EQ(analyzer.poll_alerts(), 0u);
  EXPECT_EQ(fired, 0);

  // Crossing fires exactly once; staying high stays latched.
  SpanBatch more;
  for (std::uint64_t i = 6; i <= 20; ++i) more.push_back(kernel_span(i, i * 100, 90, "gemm"));
  feed(analyzer, std::move(more));
  EXPECT_EQ(analyzer.poll_alerts(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(last_value, 20.0);
  EXPECT_EQ(analyzer.poll_alerts(), 0u);
  EXPECT_EQ(fired, 1);

  // Recovery re-arms without firing; the next excursion fires again.
  analyzer.reset();
  EXPECT_EQ(analyzer.poll_alerts(), 0u);
  SpanBatch again;
  for (std::uint64_t i = 1; i <= 15; ++i) again.push_back(kernel_span(i, i * 100, 90, "gemm"));
  feed(analyzer, std::move(again));
  EXPECT_EQ(analyzer.poll_alerts(), 1u);
  EXPECT_EQ(fired, 2);

  // Unregistered alerts never fire again, even while over threshold.
  analyzer.remove_alert(id);
  EXPECT_EQ(analyzer.poll_alerts(), 0u);
  EXPECT_EQ(fired, 2);
}

TEST(OnlineSampling, FireBelowAlertsWatchTheOtherEdge) {
  // A fire_above=false rule alarms on *low* values — the "sampling shed
  // everything" shape, e.g. watching est_spans starve.
  OnlineAnalyzer analyzer;
  int fired = 0;
  AlertRule rule;
  rule.name = "starved";
  rule.value = [](const OnlineSnapshot& s) { return s.est_spans; };
  rule.threshold = 3.0;
  rule.fire_above = false;
  analyzer.add_alert(rule, [&](const AlertRule&, double, const OnlineSnapshot&) { ++fired; });

  // 0 spans < 3: fires immediately, once.
  EXPECT_EQ(analyzer.poll_alerts(), 1u);
  EXPECT_EQ(analyzer.poll_alerts(), 0u);
  EXPECT_EQ(fired, 1);

  // Recovery above the threshold re-arms.
  SpanBatch batch;
  for (std::uint64_t i = 1; i <= 10; ++i) batch.push_back(kernel_span(i, i * 100, 90, "gemm"));
  feed(analyzer, std::move(batch));
  EXPECT_EQ(analyzer.poll_alerts(), 0u);
  analyzer.reset();
  EXPECT_EQ(analyzer.poll_alerts(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(OnlineSampling, MultipleAlertsPollIndependently) {
  OnlineAnalyzer analyzer;
  int high_fired = 0;
  int low_fired = 0;
  AlertRule high;
  high.name = "high";
  high.value = [](const OnlineSnapshot& s) { return static_cast<double>(s.spans); };
  high.threshold = 5.0;
  analyzer.add_alert(high, [&](const AlertRule&, double, const OnlineSnapshot&) { ++high_fired; });
  AlertRule low;
  low.name = "low";
  low.value = [](const OnlineSnapshot& s) { return static_cast<double>(s.spans); };
  low.threshold = 100.0;
  analyzer.add_alert(low, [&](const AlertRule&, double, const OnlineSnapshot&) { ++low_fired; });

  SpanBatch batch;
  for (std::uint64_t i = 1; i <= 10; ++i) batch.push_back(kernel_span(i, i * 100, 90, "gemm"));
  feed(analyzer, std::move(batch));
  // One poll, one snapshot, both rules evaluated: only the crossed one fires.
  EXPECT_EQ(analyzer.poll_alerts(), 1u);
  EXPECT_EQ(high_fired, 1);
  EXPECT_EQ(low_fired, 0);
}

}  // namespace
}  // namespace xsp::analysis
