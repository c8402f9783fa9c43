// exact-scan: 768-d normal data larger than the last-level cache, served
// in process from two flat collections of the same vectors: "f32"
// (PDX-BOND, exact) and "u8" (quantized codes, exact rerank of 4k
// candidates). One client thread keeps a fixed window of Submits
// outstanding, alternating between the collections (closed loop).
//
// Why: distance kernels, bound evaluation and the u8 scan/rerank do nearly
// all the work, and the scan is memory-bound. The wire and the IVF index
// are idle, so a change to either should leave this workload unchanged.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kDim = 768;
constexpr size_t kK = 10;
constexpr size_t kWindow = 8;        // Outstanding Submits.
constexpr size_t kSetupRepeats = 3;  // setup_s is their median.
constexpr double kU8RecallFloor = 0.90;

pdx::SearcherConfig F32Config() {
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kFlat;
  config.pruner = pdx::PrunerKind::kBond;
  // Ascending dimension order: the order the benchmark's reference sums
  // in, which makes the byte-identical gate meaningful.
  config.bond_order = pdx::DimensionOrder::kSequential;
  config.k = kK;
  return config;
}

pdx::SearcherConfig U8Config() {
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kFlat;
  config.pruner = pdx::PrunerKind::kLinear;
  config.quantization = pdx::QuantizationKind::kU8;
  config.rerank_factor = 4;
  config.k = kK;
  return config;
}

}  // namespace

Outcome RunExactScan(const RunOptions& options) {
  Outcome out;
  pdx::SyntheticSpec spec;
  spec.name = "exact-scan";
  spec.dim = kDim;
  spec.count = options.tiny ? 3000 : 120000;
  spec.num_queries = options.tiny ? 16 : 128;
  spec.distribution = pdx::ValueDistribution::kNormal;
  spec.num_clusters = 64;
  spec.seed = 42;  // The mixture; the run's seed draws from it.
  const Inputs inputs = DrawInputs(spec, options.seed);
  const pdx::VectorSet& data = inputs.rows;
  const pdx::VectorSet& queries = inputs.queries;
  const auto truth = BruteForceKnn(data.data(), nullptr, data.count(), kDim,
                                   queries, kK);

  SpanLog log(options.trace);
  pdx::ServiceConfig service_config;
  service_config.threads = 0;
  service_config.max_pending = 4096;
  service_config.qps_window = std::chrono::milliseconds(
      static_cast<int64_t>(options.seconds * 1000.0));
  std::unique_ptr<pdx::SearchService> service;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    const Clock::time_point t = Clock::now();
    service = std::make_unique<pdx::SearchService>(service_config);
    for (const auto& [name, config] :
         {std::pair{std::string("f32"), F32Config()},
          std::pair{std::string("u8"), U8Config()}}) {
      ScopedSpan span(log, "serve.add_collection");
      const pdx::Status added = service->AddCollection(name, data, config);
      if (!added.ok()) throw std::runtime_error(added.ToString());
    }
    for (const char* name : {"f32", "u8"}) {
      ScopedSpan span(log, "client.first_query");
      const pdx::QueryResult first =
          service->Submit(name, queries.Vector(0)).result.get();
      if (!first.status.ok()) throw std::runtime_error(first.status.ToString());
    }
    setup_s.push_back(SecondsSince(t));
  }

  const ServeSnapshot before = TakeServeSnapshot(*service);
  const ClosedLoopResult run =
      RunClosedLoop(*service, {"f32", "u8"}, queries, kWindow,
                    options.seconds, false, log, {"core", "quant"});
  const ServeSnapshot after = TakeServeSnapshot(*service);

  // Gates: every f32 answer byte-identical to the reference; the u8 tier
  // above its recall floor. Recall is averaged per pool query so it does
  // not depend on how many times the loop cycled.
  size_t mismatches = 0;
  std::vector<double> recall_sum[2] = {std::vector<double>(queries.count()),
                                       std::vector<double>(queries.count())};
  std::vector<size_t> recall_n[2] = {std::vector<size_t>(queries.count()),
                                     std::vector<size_t>(queries.count())};
  for (const ClosedLoopResult::Answer& a : run.answers) {
    if (a.collection == 0 && !SameNeighbors(a.neighbors, truth[a.query])) {
      ++mismatches;
    }
    recall_sum[a.collection][a.query] +=
        RecallAt(a.neighbors, truth[a.query], kK);
    ++recall_n[a.collection][a.query];
  }
  double recall[2] = {0.0, 0.0};
  for (size_t c = 0; c < 2; ++c) {
    std::vector<double> per_query;
    for (size_t q = 0; q < queries.count(); ++q) {
      if (recall_n[c][q] > 0) {
        per_query.push_back(recall_sum[c][q] / recall_n[c][q]);
      }
    }
    recall[c] = Mean(per_query);
  }
  if (mismatches > 0) {
    out.Fail(std::to_string(mismatches) +
             " f32 answers differ from the brute-force reference");
  }
  if (recall[1] < kU8RecallFloor) {
    out.Fail("u8 recall@10 " + std::to_string(recall[1]) + " below floor " +
             std::to_string(kU8RecallFloor));
  }
  if (run.failed > 0) out.Fail(std::to_string(run.failed) + " searches failed");

  out.attempted = run.attempted;
  out.failed = run.failed;
  out.EndToEnd("setup_s", Median(setup_s), "s");
  const PhaseRates rates =
      SliceMedians(run.done_s, run.latency_ms, options.seconds);
  out.EndToEnd("qps", rates.qps, "1/s");
  out.EndToEnd("p50_ms", rates.p50_ms, "ms");
  out.EndToEnd("recall_at_10", (recall[0] + recall[1]) / 2.0, "ratio");
  out.EndToEnd("rss_mb", PeakRssMb(), "MiB");
  out.Note("p99_ms " + std::to_string(SlicedP99(run.latency_ms)) +
           " ms (printed, not gated: its spread on a shared 4-core box "
           "exceeds any allowed bound)");
  out.Note("exact-scan: " + std::to_string(data.count()) + " x " +
           std::to_string(kDim) + " vectors, " +
           std::to_string(run.latency_ms.size()) +
           " latency samples, closed loop window " + std::to_string(kWindow));
  out.Note("gate: f32 byte-identical mismatches " + std::to_string(mismatches) +
           "; recall@10 f32 " + std::to_string(recall[0]) + ", u8 " +
           std::to_string(recall[1]) + " (floor " +
           std::to_string(kU8RecallFloor) + ")");
  out.Note("error_rate " +
           std::to_string(run.attempted == 0
                              ? 0.0
                              : double(run.failed) / double(run.attempted)));

  if (!options.trace) return out;

  const ClosedLoopResult traced =
      RunClosedLoop(*service, {"f32", "u8"}, queries, kWindow,
                    options.seconds, true, log, {"core", "quant"});
  out.Layer("obs.trace_overhead",
            Median(traced.latency_ms) / Median(run.latency_ms), "ratio");
  ReportWire(out, traced.wire_ms, 0.0);
  ReportServeLayer(out, *service, before, after, traced.traces, "f32",
                   queries);
  const pdx::CollectionStats u8 = service->Stats().collections.at("u8");
  out.Layer("quant.rerank_candidates_per_query",
            u8.completed == 0 ? 0.0
                              : static_cast<double>(u8.rerank_candidates) /
                                    static_cast<double>(u8.completed),
            "count");
  out.Layer("quant.recall_at_10", recall[1], "ratio");
  out.Layer("quant.scan_bytes", static_cast<double>(u8.quantized_bytes), "B");
  ReportStorageProbe(out, *service, "f32",
                     options.work_dir + "/exact-scan-f32.pdxc", data.count(),
                     log);
  service.reset();
  ReportEngineLayer(
      out,
      [&](bool phase_times) {
        pdx::SearcherConfig config = F32Config();
        config.search.collect_phase_times = phase_times;
        return pdx::MakeSearcher(data, config);
      },
      queries, log);
  SummarizeSpans(out, log,
                 options.work_dir + "/spans-exact-scan-" +
                     std::to_string(options.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
