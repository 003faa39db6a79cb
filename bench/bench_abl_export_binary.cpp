// Ablation: XSP binary wire vs JSON streaming export.
//
// The binary format exists for export throughput: JSON spends its time
// formatting timestamps and metric doubles per span, while the binary
// writer memcpys sealed batches and ships each interned string a stream
// uses once, in StringDelta frames. This bench pins the headline ratio —
// binary encode must clear 10x the JSON streaming baseline (see
// bench/results/BENCH_abl_export_stream.json) — and the cost of reading
// it back.
//
//   BM_ExportSpanJsonFromBatches  StreamingExporter span-JSON -> null sink
//                                 (the JSON baseline, same shape as
//                                 bench_abl_export_stream for comparison)
//   BM_ExportBinaryToString       BinaryWriter -> a reused std::string: the
//                                 string scan, delta and every byte copied
//   BM_ExportBinaryToSink         BinaryWriter -> FrameSink buffering path
//                                 (what a file sink exercises, minus the OS)
//   BM_WriterReconnect            a fresh writer per 1,000 spans over a
//                                 ~1.5k-string table: ns and bytes per
//                                 reconnect of a RemoteSink-style stream
//   BM_DecodeBinaryToBatches      BinaryReader over an in-memory stream
//   BM_RoundTripBinary            encode + decode, the replay path
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "xsp/trace/export.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace {

using namespace xsp;
using namespace xsp::trace;

constexpr std::size_t kSpanCount = 8192;

SpanBatches synthetic_batches() {
  // Same span mix as bench_abl_export_stream so the two dumps compare:
  // interned names, a tag, two metrics, full-width timestamps.
  SpanBatches batches;
  SpanBatch batch;
  batch.reserve(TraceServer::kBatchCapacity);
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    Span s;
    s.id = i + 1;
    s.level = kKernelLevel;
    s.name = "volta_scudnn_128x64_relu_interior_nn_v1";
    s.tracer = "cupti";
    s.begin = static_cast<TimePoint>(1'000'000'000 + i * 12'345);
    s.end = s.begin + 9'876;
    s.tags.set("kind", "kernel");
    s.metrics.set("flop_count_sp", 123456789012.0);
    s.metrics.set("achieved_occupancy", 0.4375);
    batch.push_back(s);
    if (batch.size() == TraceServer::kBatchCapacity) {
      batches.push_back(std::move(batch));
      batch = SpanBatch();
      batch.reserve(TraceServer::kBatchCapacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

std::string encode_batches(const SpanBatches& batches) {
  std::string out;
  out.reserve(kSpanCount * sizeof(Span) + 4096);
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  writer.write_batches(batches);
  writer.finish();
  return out;
}

/// The JSON baseline, duplicated here so one binary's dump carries both
/// sides of the headline ratio.
void BM_ExportSpanJsonFromBatches(benchmark::State& state) {
  const SpanBatches batches = synthetic_batches();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    StreamingExporter exporter(
        ExportFormat::kSpanJson, [&bytes](std::string_view chunk) { bytes += chunk.size(); },
        /*with_metadata=*/true);
    exporter.write_batches(batches);
    exporter.finish();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportSpanJsonFromBatches);

void BM_ExportBinaryToString(benchmark::State& state) {
  // Every byte lands in one reused buffer, so the row times the encode
  // itself: the per-span string scan, the delta and the span copies.
  const SpanBatches batches = synthetic_batches();
  std::string out;
  out.reserve(kSpanCount * sizeof(Span) + 4096);
  for (auto _ : state) {
    out.clear();
    BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
    writer.write_batches(batches);
    writer.finish();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportBinaryToString);

void BM_ExportBinaryToSink(benchmark::State& state) {
  // Through an ostringstream-backed FrameSink: the buffered path a file
  // sink takes, without the filesystem's noise.
  const SpanBatches batches = synthetic_batches();
  for (auto _ : state) {
    state.PauseTiming();
    std::ostringstream out;
    state.ResumeTiming();
    BinaryWriter writer(out);
    writer.write_batches(batches);
    writer.finish();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportBinaryToSink);

void BM_WriterReconnect(benchmark::State& state) {
  // A producer process whose string table holds ~1.5k strings (the
  // fleet_ingest producers' 1,489) reconnects after every 1,000 spans; a
  // run's spans use a 200-name slice of the table, the slice moving per
  // reconnect. Each iteration is one reconnect: a fresh writer, its delta,
  // 1,000 spans and the footer.
  constexpr std::size_t kTableStrings = 1500;
  constexpr std::size_t kSpansPerReconnect = 1000;
  constexpr std::size_t kSliceNames = 200;
  std::vector<StrId> names;
  for (std::size_t i = 0; i < kTableStrings; ++i) {
    names.emplace_back("reconnect_kernel_" + std::to_string(i));
  }
  std::vector<SpanBatch> runs(kTableStrings / kSliceNames);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < kSpansPerReconnect; ++i) {
      Span s;
      s.id = i + 1;
      s.level = kKernelLevel;
      s.name = names[r * kSliceNames + i % kSliceNames];
      s.tracer = "cupti";
      s.begin = static_cast<TimePoint>(i * 1'000);
      s.end = s.begin + 500;
      s.tags.set("kind", "kernel");
      s.metrics.set("flop_count_sp", 1.0e9);
      runs[r].push_back(s);
    }
  }
  std::string out;
  std::uint64_t bytes = 0;
  std::size_t r = 0;
  for (auto _ : state) {
    out.clear();
    BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
    writer.write_batch(runs[r]);
    writer.finish();
    bytes += out.size();
    r = (r + 1) % runs.size();
  }
  state.counters["bytes_per_reconnect"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpansPerReconnect));
}
BENCHMARK(BM_WriterReconnect);

void BM_DecodeBinaryToBatches(benchmark::State& state) {
  const std::string encoded = encode_batches(synthetic_batches());
  std::uint64_t spans = 0;
  for (auto _ : state) {
    std::istringstream in(encoded);
    BinaryReader reader(in);
    SpanBatch batch;
    while (reader.next_batch(batch)) spans += batch.size();
    benchmark::DoNotOptimize(spans);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_DecodeBinaryToBatches);

void BM_RoundTripBinary(benchmark::State& state) {
  const SpanBatches batches = synthetic_batches();
  std::uint64_t spans = 0;
  for (auto _ : state) {
    std::istringstream in(encode_batches(batches));
    BinaryReader reader(in);
    SpanBatch batch;
    while (reader.next_batch(batch)) spans += batch.size();
    benchmark::DoNotOptimize(spans);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_RoundTripBinary);

}  // namespace

BENCHMARK_MAIN();
