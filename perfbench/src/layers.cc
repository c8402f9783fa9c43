// Measurement pieces every workload shares: the in-process closed loop and
// the per-layer probes of the traced run (serving stages, wire shares,
// facade replay of the engine, storage round trip).

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "core/persist.h"

namespace perfbench {

ClosedLoopResult RunClosedLoop(pdx::SearchService& service,
                               const std::vector<std::string>& collections,
                               const pdx::VectorSet& queries, size_t window,
                               double seconds, bool trace, SpanLog& log,
                               const std::vector<std::string>& search_layers) {
  ClosedLoopResult out;
  std::mutex mutex;
  std::condition_variable cv;
  size_t inflight = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return inflight < window; });
      ++inflight;
    }
    const size_t c = i % collections.size();
    const size_t q = (i / collections.size()) % queries.count();
    pdx::QueryOptions options;
    options.trace = trace;
    const uint64_t request = trace ? log.NewRequest() : 0;
    const Clock::time_point sent = Clock::now();
    ++out.attempted;
    service.Submit(
        collections[c], queries.Vector(static_cast<pdx::VectorId>(q)),
        options, [&, c, q, sent, request](pdx::QueryResult result) {
          const Clock::time_point done = Clock::now();
          std::lock_guard<std::mutex> lock(mutex);
          const double latency = Ms(sent, done);
          out.latency_ms.push_back(latency);
          out.done_s.push_back(Ms(start, done) / 1000.0);
          if (!result.status.ok()) {
            ++out.failed;
          } else {
            out.answers.push_back({q, c, std::move(result.neighbors)});
          }
          if (result.trace != nullptr) {
            out.wire_ms.push_back(latency - result.trace->total_ms);
            out.traces.push_back(*result.trace);
            const double begin = log.ToMs(sent);
            const uint64_t root = log.Record("client.submit", begin,
                                             log.ToMs(done), 0, request);
            RecordServeStages(log, *result.trace,
                              begin + (latency - result.trace->total_ms) / 2,
                              root, request, search_layers[c]);
          }
          --inflight;
          cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return inflight == 0; });
  return out;
}

ServeSnapshot TakeServeSnapshot(const pdx::SearchService& service) {
  ServeSnapshot snap;
  for (const auto& [name, cs] : service.Stats().collections) {
    snap.completed += cs.completed;
    snap.dispatches += cs.dispatches;
  }
  return snap;
}

void ReportServeLayer(Outcome& out, pdx::SearchService& service,
                      const ServeSnapshot& before, const ServeSnapshot& after,
                      const std::vector<pdx::QueryTrace>& traces,
                      const std::string& collection,
                      const pdx::VectorSet& queries) {
  std::vector<double> queue, stage, search, deliver;
  for (const pdx::QueryTrace& t : traces) {
    queue.push_back(t.queue_ms);
    stage.push_back(t.stage_ms);
    search.push_back(t.search_ms);
    deliver.push_back(t.deliver_ms);
  }
  out.Layer("serve.queue_ms_p50", Median(queue), "ms");
  out.Layer("serve.queue_ms_p99", Percentile(queue, 99), "ms");
  out.Layer("serve.stage_ms_p50", Median(stage), "ms");
  out.Layer("serve.search_ms_p50", Median(search), "ms");
  out.Layer("serve.deliver_ms_p50", Median(deliver), "ms");

  const uint64_t dispatches = after.dispatches - before.dispatches;
  out.Layer("serve.batch_size",
            dispatches == 0 ? 0.0
                            : static_cast<double>(after.completed -
                                                  before.completed) /
                                  static_cast<double>(dispatches),
            "queries");
  std::vector<double> busy;
  for (const pdx::DispatcherStats& d : service.Stats().dispatchers) {
    busy.push_back(d.busy_fraction);
  }
  out.Layer("serve.dispatcher_busy", Mean(busy), "ratio");

  // Quiescent single client: every allocation any thread makes between the
  // first Submit and the settle after the last result is charged to the
  // queries (dispatcher bookkeeping included).
  constexpr size_t kProbes = 32;
  (void)service.Submit(collection, queries.Vector(0)).result.get();  // Warm.
  AllocCounter::Enable(true);
  const uint64_t start = AllocCounter::Count();
  for (size_t i = 0; i < kProbes; ++i) {
    const auto q = static_cast<pdx::VectorId>(i % queries.count());
    (void)service.Submit(collection, queries.Vector(q)).result.get();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t allocs = AllocCounter::Count() - start;
  AllocCounter::Enable(false);
  out.Layer("serve.allocs_per_query",
            static_cast<double>(allocs) / static_cast<double>(kProbes),
            "count");
}

void ReportWire(Outcome& out, const std::vector<double>& wire_ms,
                double bytes_per_query) {
  out.Layer("net.wire_ms_p50", Median(wire_ms), "ms");
  out.Layer("net.wire_ms_p99", Percentile(wire_ms, 99), "ms");
  out.Layer("net.wire_stalls",
            static_cast<double>(std::count_if(
                wire_ms.begin(), wire_ms.end(),
                [](double ms) { return ms > 10.0; })),
            "count");
  out.Layer("net.bytes_per_query", bytes_per_query, "B");
}

void ReportEngineLayer(Outcome& out, const SearcherBuild& build,
                       const pdx::VectorSet& queries, SpanLog& log) {
  const size_t n = queries.count();
  const size_t dim = queries.dim();
  {
    // Untimed engine: the build, the allocation count and the pooled batch
    // throughput, without the phase timers on the block loop.
    const double begin = log.NowMs();
    const Clock::time_point t = Clock::now();
    auto built = build(false);
    out.Layer("storage.build_s", SecondsSince(t), "s");
    log.Record("storage.build", begin, log.NowMs());
    if (!built.ok()) {
      out.Fail("MakeSearcher: " + built.status().ToString());
      return;
    }
    pdx::Searcher& searcher = *built.value();
    searcher.ReserveScratch(1);
    (void)searcher.SearchBatchWith(0, {}, queries.Vector(0), 1);  // Warm.
    AllocCounter::Enable(true);
    const uint64_t start = AllocCounter::Count();
    for (size_t q = 0; q < n; ++q) {
      (void)searcher.SearchBatchWith(
          0, {}, queries.Vector(static_cast<pdx::VectorId>(q)), 1);
    }
    const uint64_t allocs = AllocCounter::Count() - start;
    AllocCounter::Enable(false);
    out.Layer("engine.allocs_per_query",
              static_cast<double>(allocs) / static_cast<double>(n), "count");

    searcher.set_threads(
        std::min<size_t>(4, std::thread::hardware_concurrency()));
    (void)searcher.SearchBatch(queries.data(), n);  // Warm the owned pool.
    size_t done = 0;
    const Clock::time_point batch = Clock::now();
    while (done == 0 || SecondsSince(batch) < 1.0) {
      const double span_start = log.NowMs();
      (void)searcher.SearchBatch(queries.data(), n);
      log.Record("core.search_batch", span_start, log.NowMs());
      done += n;
    }
    out.Layer("engine.batch_qps",
              static_cast<double>(done) / SecondsSince(batch), "1/s");
  }

  // Timed engine: the paper's Table 7 phases per query.
  auto built = build(true);
  if (!built.ok()) {
    out.Fail("MakeSearcher: " + built.status().ToString());
    return;
  }
  pdx::Searcher& searcher = *built.value();
  pdx::PdxearchProfile sum;
  for (size_t q = 0; q < n; ++q) {
    const double begin = log.NowMs();
    (void)searcher.Search(queries.Vector(static_cast<pdx::VectorId>(q)));
    const double end = log.NowMs();
    const pdx::PdxearchProfile& p = searcher.last_profile();
    sum += p;
    const uint64_t root = log.Record("core.search", begin, end);
    double t = begin;
    const std::pair<const char*, double> phases[] = {
        {"pruning.preprocess", p.preprocess_ms},
        {"index.find_buckets", p.find_buckets_ms},
        {"pruning.bounds", p.bounds_ms},
        {"kernels.distance", p.distance_ms}};
    for (const auto& [name, ms] : phases) {
      log.Record(name, t, t + ms, root);
      t += ms;
    }
  }
  const double per = 1.0 / static_cast<double>(n);
  out.Layer("engine.preprocess_ms", sum.preprocess_ms * per, "ms");
  out.Layer("engine.find_buckets_ms", sum.find_buckets_ms * per, "ms");
  out.Layer("engine.bounds_ms", sum.bounds_ms * per, "ms");
  out.Layer("engine.distance_ms", sum.distance_ms * per, "ms");
  out.Layer("engine.values_scanned_per_query",
            static_cast<double>(sum.values_scanned) * per, "count");
  out.Layer("engine.blocks_visited_per_query",
            static_cast<double>(sum.blocks_visited) * per, "count");
  out.Layer("engine.predicate_evals_per_query",
            static_cast<double>(sum.predicate_evaluations) * per, "count");
  out.Layer("pruning.power", sum.pruning_power(), "ratio");
  const double lanes = static_cast<double>(sum.values_total) /
                       static_cast<double>(std::max<size_t>(1, dim));
  out.Layer("pruning.pruned_fraction",
            lanes > 0 ? static_cast<double>(sum.vectors_pruned) / lanes : 0.0,
            "ratio");
  out.Layer("kernels.distance_gbps",
            sum.distance_ms > 0
                ? static_cast<double>(sum.values_scanned) * sizeof(float) /
                      (sum.distance_ms / 1000.0) / 1e9
                : 0.0,
            "GB/s");
}

void ReportStorageProbe(Outcome& out, pdx::SearchService& service,
                        const std::string& name, const std::string& path,
                        size_t vectors, SpanLog& log) {
  double begin = log.NowMs();
  Clock::time_point t = Clock::now();
  const pdx::Status saved = service.SaveCollection(name, path);
  out.Layer("storage.save_s", SecondsSince(t), "s");
  log.Record("storage.save", begin, log.NowMs());
  if (!saved.ok()) {
    out.Fail("SaveCollection: " + saved.ToString());
    return;
  }
  out.Layer("storage.file_bytes_per_vector",
            static_cast<double>(FileBytes(path)) /
                static_cast<double>(std::max<size_t>(1, vectors)),
            "B");
  begin = log.NowMs();
  t = Clock::now();
  {
    auto loaded = pdx::LoadCollection(path);
    out.Layer("storage.load_s", SecondsSince(t), "s");
    log.Record("storage.load", begin, log.NowMs());
    if (!loaded.ok()) out.Fail("LoadCollection: " + loaded.status().ToString());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void FillIdleLayers(Outcome& out) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"net.wire_ms_p50", "ms"},
      {"net.wire_ms_p99", "ms"},
      {"net.wire_stalls", "count"},
      {"net.bytes_per_query", "B"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.stage_ms_p50", "ms"},
      {"serve.search_ms_p50", "ms"},
      {"serve.deliver_ms_p50", "ms"},
      {"serve.batch_size", "queries"},
      {"serve.dispatcher_busy", "ratio"},
      {"serve.allocs_per_query", "count"},
      {"engine.preprocess_ms", "ms"},
      {"engine.find_buckets_ms", "ms"},
      {"engine.bounds_ms", "ms"},
      {"engine.distance_ms", "ms"},
      {"engine.values_scanned_per_query", "count"},
      {"engine.blocks_visited_per_query", "count"},
      {"engine.predicate_evals_per_query", "count"},
      {"engine.allocs_per_query", "count"},
      {"engine.batch_qps", "1/s"},
      {"pruning.power", "ratio"},
      {"pruning.pruned_fraction", "ratio"},
      {"kernels.distance_gbps", "GB/s"},
      {"index.kmeans_s", "s"},
      {"storage.build_s", "s"},
      {"storage.load_s", "s"},
      {"storage.save_s", "s"},
      {"storage.file_bytes_per_vector", "B"},
      {"storage.bytes_written_per_ingested_byte", "ratio"},
      {"mutable.compactions", "count"},
      {"mutable.compaction_ms_p50", "ms"},
      {"mutable.delta_rows_peak", "count"},
      {"mutable.tombstones_peak", "count"},
      {"mutable.write_ms_p50", "ms"},
      {"mutable.write_ms_p99", "ms"},
      {"quant.rerank_candidates_per_query", "count"},
      {"quant.recall_at_10", "ratio"},
      {"quant.scan_bytes", "B"},
      {"obs.trace_overhead", "ratio"},
  };
  for (const auto& [name, unit] : kAll) out.Layer(name, 0.0, unit);
  // Emit in the fixed order above, whatever order the workload filled.
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kAll) {
    for (const Metric& m : out.per_layer) {
      if (m.name == name) ordered.push_back(m);
    }
  }
  out.per_layer = std::move(ordered);
}

}  // namespace perfbench
