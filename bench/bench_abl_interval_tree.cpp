// Ablation: interval-tree vs linear-scan parent reconstruction, and the
// cost of the whole assembly stage built on it.
//
// XSP's design choice (Section III-A) is an interval tree for the
// set-inclusion queries that rebuild span parent-child links. This
// google-benchmark ablation measures both against trace sizes from a few
// hundred spans (one model) to hundreds of thousands (long-running
// applications), in real host time. BM_TimelineAssemble times
// Timeline::assemble end to end (correlation, ordering, tree build, parent
// search, hierarchy) on a zoo-shaped trace and reports spans/s.
#include <benchmark/benchmark.h>

#include <vector>

#include "xsp/common/rng.hpp"
#include "xsp/trace/interval_tree.hpp"
#include "xsp/trace/timeline.hpp"

namespace {

using xsp::common::StrId;
using xsp::trace::IntervalTree;
using Entry = IntervalTree<int>::Entry;

/// Layer-like intervals: disjoint siblings covering a long timeline.
std::vector<Entry> make_layers(int n) {
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  xsp::TimePoint t = 0;
  xsp::SplitMix64 rng(42);
  for (int i = 0; i < n; ++i) {
    const auto len = static_cast<xsp::TimePoint>(1000 + rng.below(20000));
    entries.push_back({t, t + len, i});
    t += len + 100;
  }
  return entries;
}

/// Kernel-like query points: a few per layer.
std::vector<std::pair<xsp::TimePoint, xsp::TimePoint>> make_queries(
    const std::vector<Entry>& layers, int per_layer) {
  std::vector<std::pair<xsp::TimePoint, xsp::TimePoint>> qs;
  xsp::SplitMix64 rng(7);
  for (const auto& l : layers) {
    for (int i = 0; i < per_layer; ++i) {
      const auto lo = l.lo + static_cast<xsp::TimePoint>(rng.below(
                                 static_cast<std::uint64_t>(l.hi - l.lo) / 2 + 1));
      qs.emplace_back(lo, lo + 10);
    }
  }
  return qs;
}

void BM_IntervalTreeCorrelation(benchmark::State& state) {
  const auto layers = make_layers(static_cast<int>(state.range(0)));
  const auto queries = make_queries(layers, 3);
  for (auto _ : state) {
    IntervalTree<int> tree{std::vector<Entry>(layers)};
    std::size_t found = 0;
    for (const auto& [lo, hi] : queries) found += tree.containing(lo, hi).size();
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(queries.size()));
}

void BM_LinearScanCorrelation(benchmark::State& state) {
  const auto layers = make_layers(static_cast<int>(state.range(0)));
  const auto queries = make_queries(layers, 3);
  for (auto _ : state) {
    std::size_t found = 0;
    for (const auto& [lo, hi] : queries) {
      for (const auto& l : layers) {
        if (l.lo <= lo && l.hi >= hi) ++found;
      }
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(queries.size()));
}

/// A trace shaped like one M/L/G+library run of a zoo model: one model
/// span, `layers` layer spans, and per layer one library span and two
/// kernel launch/execution pairs carrying kernel-like annotations. Spans are
/// published in two batches whose interleaving is not begin-ordered, as
/// several tracers' producer slots are.
xsp::trace::SpanBatches make_zoo_trace(int layers) {
  using namespace xsp::trace;
  const StrId model_name{"Predict"}, layer_name{"conv2d"}, library_name{"cudnnConvolution"},
      launch_name{"cudaLaunchKernel"}, kernel_name{"volta_scudnn_128x64"}, grid{"grid"},
      block{"block"}, grid_dims{"(64,1,1)"}, block_dims{"(128,1,1)"}, flops{"flop_count_sp"},
      dram{"dram_read_bytes"};
  SpanBatches batches(2);
  SpanId next_id = 1;
  std::uint64_t next_correlation = 1;
  const auto add = [&](std::size_t batch, int level, StrId name, xsp::TimePoint begin,
                       xsp::TimePoint end) -> Span& {
    Span s;
    s.id = next_id++;
    s.level = level;
    s.name = name;
    s.begin = begin;
    s.end = end;
    return batches[batch].emplace_back(s);
  };
  xsp::SplitMix64 rng(3);
  xsp::TimePoint t = 100;
  for (int l = 0; l < layers; ++l) {
    const auto len = static_cast<xsp::TimePoint>(2'000 + rng.below(8'000));
    add(0, kLayerLevel, layer_name, t, t + len);
    add(0, kLibraryLevel, library_name, t + 10, t + len - 10);
    for (int k = 0; k < 2; ++k) {
      const xsp::TimePoint launch_begin = t + 20 + k * 200;
      Span& launch = add(0, kKernelLevel, launch_name, launch_begin, launch_begin + 50);
      launch.kind = SpanKind::kLaunch;
      launch.correlation_id = next_correlation;
      launch.tags.set(grid, grid_dims);
      launch.tags.set(block, block_dims);
      const xsp::TimePoint exec_begin =
          launch_begin + 100 + static_cast<xsp::TimePoint>(rng.below(500));
      Span& exec = add(1, kKernelLevel, kernel_name, exec_begin,
                       exec_begin + 500 + static_cast<xsp::TimePoint>(rng.below(len)));
      exec.kind = SpanKind::kExecution;
      exec.correlation_id = next_correlation++;
      exec.metrics.set(flops, 1e9);
      exec.metrics.set(dram, 4e6);
    }
    t += len + 50;
  }
  add(0, kModelLevel, model_name, 0, t + 100);
  return batches;
}

void BM_TimelineAssemble(benchmark::State& state) {
  const auto batches = make_zoo_trace(static_cast<int>(state.range(0)));
  std::int64_t spans = 0;
  for (const auto& batch : batches) spans += static_cast<std::int64_t>(batch.size());
  for (auto _ : state) {
    auto timeline = xsp::trace::Timeline::assemble(batches);
    benchmark::DoNotOptimize(timeline.size());
  }
  state.SetItemsProcessed(state.iterations() * spans);
}

BENCHMARK(BM_IntervalTreeCorrelation)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_LinearScanCorrelation)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_TimelineAssemble)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
