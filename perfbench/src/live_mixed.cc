// live-mixed: a 96-d flat PDX-BOND live collection restored from a saved
// file, searched by one closed-loop client while a writer sends 32-row
// batches at a fixed rate, cycling add / upsert / delete. The compaction
// threshold is low enough that several compactions (each followed by a
// re-save of the collection file) land in every run.
//
// Why: the same engine as exact-scan, with writes beside reads (delta
// merge, tombstones, writer lock, compaction, snapshot rewrite), and a
// set-up that is a restore (mmap load) rather than a build. A read-side
// gain that costs writes, or a durable save that costs compaction, shows
// here.

#include <atomic>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr size_t kDim = 96;
constexpr size_t kK = 10;
constexpr size_t kBatch = 32;            // Rows per mutation call.
constexpr double kWriteBatchesPerS = 6;  // Writer schedule.
constexpr size_t kSetupRepeats = 3;

pdx::SearcherConfig LiveConfig() {
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kFlat;
  config.pruner = pdx::PrunerKind::kBond;
  // Ascending order: results are then byte-identical to the benchmark's
  // reference over its own record of live ids.
  config.bond_order = pdx::DimensionOrder::kSequential;
  config.k = kK;
  return config;
}

/// The benchmark's record of what the collection holds: live id -> row.
class Record {
 public:
  void Put(uint64_t id, const float* row) {
    auto it = rows_.find(id);
    if (it != rows_.end()) {
      it->second.row = row;
      return;
    }
    rows_[id] = {ids_.size(), row};
    ids_.push_back(id);
  }
  void Erase(uint64_t id) {
    auto it = rows_.find(id);
    const size_t pos = it->second.pos;
    ids_[pos] = ids_.back();
    rows_[ids_[pos]].pos = pos;
    ids_.pop_back();
    rows_.erase(it);
  }
  /// `n` distinct live ids drawn with `rng`.
  std::vector<uint64_t> Sample(size_t n, std::mt19937_64& rng) const {
    std::vector<uint64_t> out;
    std::unordered_set<size_t> taken;
    while (out.size() < n && out.size() < ids_.size()) {
      const size_t pos = rng() % ids_.size();
      if (taken.insert(pos).second) out.push_back(ids_[pos]);
    }
    return out;
  }
  size_t size() const { return ids_.size(); }
  /// Contiguous rows plus their ids, for the brute-force reference.
  void Flatten(std::vector<float>* rows, std::vector<uint32_t>* ids) const {
    rows->clear();
    ids->clear();
    for (uint64_t id : ids_) {
      const float* row = rows_.at(id).row;
      rows->insert(rows->end(), row, row + kDim);
      ids->push_back(static_cast<uint32_t>(id));
    }
  }

 private:
  struct Entry {
    size_t pos = 0;
    const float* row = nullptr;
  };
  std::vector<uint64_t> ids_;
  std::unordered_map<uint64_t, Entry> rows_;
};

struct PhaseResult {
  ClosedLoopResult reads;
  std::vector<double> write_ms;
  uint64_t writes = 0;
  uint64_t write_failures = 0;
  uint64_t compactions = 0;
  size_t delta_peak = 0;
  size_t tombstones_peak = 0;
  double bytes_ingested = 0;
  double bytes_rewritten = 0;  ///< Snapshot bytes re-saved by compactions.
};

/// p50 of the compactions observed between two bucket snapshots of the
/// registry's pdx_compaction_ms histogram, interpolated within a bucket.
double HistogramMedian(const std::vector<double>& bounds,
                       const std::vector<uint64_t>& before,
                       const std::vector<uint64_t>& after) {
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  if (total == 0) return 0.0;
  const double half = static_cast<double>(total) / 2.0;
  double seen = 0.0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double n = static_cast<double>(after[i] - before[i]);
    if (seen + n >= half && n > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : lo * 2.0;
      return lo + (hi - lo) * (half - seen) / n;
    }
    seen += n;
  }
  return bounds.back();
}

}  // namespace

Outcome RunLiveMixed(const RunOptions& options) {
  Outcome out;
  const size_t base_count = options.tiny ? 3000 : 100000;
  const size_t pool_count = options.tiny ? 2000 : 20000;
  pdx::SyntheticSpec spec;
  spec.name = "live-mixed";
  spec.dim = kDim;
  spec.count = base_count + pool_count;
  spec.num_queries = options.tiny ? 8 : 128;
  spec.distribution = pdx::ValueDistribution::kNormal;
  spec.num_clusters = 32;
  spec.seed = 42;  // The mixture; the run's seed draws from it.
  const Inputs inputs = DrawInputs(spec, options.seed);
  const pdx::VectorSet base =
      pdx::VectorSet::FromRowMajor(inputs.rows.data(), base_count, kDim);
  const float* pool =
      inputs.rows.Vector(static_cast<pdx::VectorId>(base_count));
  const pdx::VectorSet& queries = inputs.queries;

  pdx::MetricsRegistry registry;
  pdx::ServiceConfig service_config;
  service_config.threads = 0;
  service_config.max_pending = 4096;
  service_config.metrics = &registry;
  service_config.mutation.compact_threshold = options.tiny ? 200 : 350;
  service_config.qps_window = std::chrono::milliseconds(
      static_cast<int64_t>(options.seconds * 1000.0));
  const std::string saved = options.work_dir + "/live-mixed-base.pdxc";
  const std::string persist = options.work_dir + "/live-mixed-live.pdxc";
  {
    pdx::SearchService origin(service_config);
    pdx::Status s = origin.AddCollection("live", base, LiveConfig());
    if (s.ok()) s = origin.SaveCollection("live", saved);
    if (!s.ok()) throw std::runtime_error(s.ToString());
  }

  // Set-up: restore by mmap, answer one query, make the collection
  // persistent at a second path (the compactor re-saves there).
  SpanLog log(options.trace);
  std::unique_ptr<pdx::SearchService> service;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    const Clock::time_point t = Clock::now();
    service = std::make_unique<pdx::SearchService>(service_config);
    pdx::Status s;
    {
      ScopedSpan span(log, "storage.load");
      s = service->LoadCollection("live", saved);
    }
    if (!s.ok()) throw std::runtime_error(s.ToString());
    {
      ScopedSpan span(log, "client.first_query");
      const pdx::QueryResult first =
          service->Submit("live", queries.Vector(0)).result.get();
      if (!first.status.ok()) throw std::runtime_error(first.status.ToString());
    }
    {
      ScopedSpan span(log, "storage.save");
      s = service->SaveCollection("live", persist);
    }
    if (!s.ok()) throw std::runtime_error(s.ToString());
    setup_s.push_back(SecondsSince(t));
  }

  Record record;
  for (size_t i = 0; i < base_count; ++i) {
    record.Put(i, base.Vector(static_cast<pdx::VectorId>(i)));
  }
  std::mt19937_64 rng(options.seed * 7919 + 17);
  size_t pool_cursor = 0;
  auto next_rows = [&]() {
    if (pool_cursor + kBatch > pool_count) pool_cursor = 0;
    const float* rows = pool + pool_cursor * kDim;
    pool_cursor += kBatch;
    return rows;
  };

  auto run_phase = [&](bool trace) {
    PhaseResult phase;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      const Clock::time_point start = Clock::now();
      for (uint64_t i = 0; !stop.load(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / kWriteBatchesPerS)));
        if (stop.load()) break;
        const int kind = static_cast<int>(i % 3);
        const double begin = log.NowMs();
        const Clock::time_point t = Clock::now();
        bool ok = false;
        const char* name = "mutable.add";
        if (kind == 0) {
          const float* rows = next_rows();
          auto ids = service->AddVectors("live", rows, kBatch, kDim);
          ok = ids.ok();
          if (ok) {
            for (size_t r = 0; r < kBatch; ++r) {
              record.Put(ids.value()[r], rows + r * kDim);
            }
          }
        } else if (kind == 1) {
          name = "mutable.upsert";
          const float* rows = next_rows();
          const std::vector<uint64_t> ids = record.Sample(kBatch, rng);
          auto done =
              service->Upsert("live", rows, ids.size(), kDim, ids.data());
          ok = done.ok();
          if (ok) {
            for (size_t r = 0; r < ids.size(); ++r) {
              record.Put(ids[r], rows + r * kDim);
            }
          }
        } else {
          name = "mutable.delete";
          const std::vector<uint64_t> ids = record.Sample(kBatch, rng);
          std::vector<uint64_t> missing;
          auto done = service->DeleteVectors("live", ids.data(), ids.size(),
                                             &missing);
          ok = done.ok() && done.value() == ids.size() && missing.empty();
          if (done.ok()) {
            for (uint64_t id : ids) record.Erase(id);
          }
        }
        phase.write_ms.push_back(SecondsSince(t) * 1000.0);
        if (trace) log.Record(name, begin, log.NowMs());
        ++phase.writes;
        if (!ok) {
          ++phase.write_failures;
        } else if (kind != 2) {
          phase.bytes_ingested += kBatch * kDim * sizeof(float);
        }
      }
    });
    std::thread sampler([&] {
      uint64_t compactions =
          service->Stats().collections.at("live").compactions;
      const uint64_t first = compactions;
      while (!stop.load()) {
        const pdx::CollectionStats cs = service->Stats().collections.at("live");
        phase.delta_peak = std::max(phase.delta_peak, cs.delta);
        phase.tombstones_peak = std::max(phase.tombstones_peak, cs.tombstones);
        if (cs.compactions != compactions) {
          phase.bytes_rewritten +=
              static_cast<double>(cs.compactions - compactions) *
              static_cast<double>(FileBytes(persist));
          compactions = cs.compactions;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      phase.compactions = compactions - first;
    });
    phase.reads = RunClosedLoop(*service, {"live"}, queries, 1,
                                options.seconds, trace, log, {"core"});
    stop.store(true);
    writer.join();
    sampler.join();
    return phase;
  };

  pdx::MetricHistogram* compaction_ms = registry.GetHistogram(
      "pdx_compaction_ms", "Wall time of one delta-into-base compaction",
      pdx::DefaultLatencyBoundsMs(), {{"collection", "live"}});
  auto buckets = [&] {
    std::vector<uint64_t> counts;
    for (size_t i = 0; i <= compaction_ms->bounds().size(); ++i) {
      counts.push_back(compaction_ms->bucket(i));
    }
    return counts;
  };
  const std::vector<uint64_t> buckets_before = buckets();
  const ServeSnapshot before = TakeServeSnapshot(*service);
  const PhaseResult run = run_phase(false);
  const ServeSnapshot after = TakeServeSnapshot(*service);
  const std::vector<uint64_t> buckets_after = buckets();

  // Gate, after the writer has stopped: every answer byte-identical to the
  // brute force over the benchmark's own record, and the same live count.
  std::vector<float> rows;
  std::vector<uint32_t> ids;
  record.Flatten(&rows, &ids);
  const auto truth =
      BruteForceKnn(rows.data(), ids.data(), ids.size(), kDim, queries, kK);
  size_t mismatches = 0;
  std::vector<double> recall;
  for (size_t q = 0; q < queries.count(); ++q) {
    const pdx::QueryResult result =
        service->Submit("live", queries.Vector(static_cast<pdx::VectorId>(q)))
            .result.get();
    if (!result.status.ok() || !SameNeighbors(result.neighbors, truth[q])) {
      ++mismatches;
    }
    recall.push_back(RecallAt(result.neighbors, truth[q], kK));
  }
  const auto info = service->GetCollectionInfo("live");
  if (mismatches > 0) {
    out.Fail(std::to_string(mismatches) + " of " +
             std::to_string(queries.count()) +
             " quiesced answers differ from brute force over the live record");
  }
  if (!info.ok() || info.value().count != record.size()) {
    out.Fail("live count " +
             std::to_string(info.ok() ? info.value().count : 0) +
             " differs from the record's " + std::to_string(record.size()));
  }
  if (run.reads.failed + run.write_failures > 0) {
    out.Fail(std::to_string(run.reads.failed) + " searches and " +
             std::to_string(run.write_failures) + " writes failed");
  }

  out.attempted = run.reads.attempted + run.writes;
  out.failed = run.reads.failed + run.write_failures;
  out.EndToEnd("setup_s", Median(setup_s), "s");
  const PhaseRates rates =
      SliceMedians(run.reads.done_s, run.reads.latency_ms, options.seconds);
  out.EndToEnd("qps", rates.qps, "1/s");
  out.EndToEnd("p50_ms", rates.p50_ms, "ms");
  out.EndToEnd("recall_at_10", Mean(recall), "ratio");
  out.EndToEnd("rss_mb", PeakRssMb(), "MiB");
  out.Note("p99_ms " + std::to_string(SlicedP99(run.reads.latency_ms)) +
           " ms (printed, not gated: its spread on a shared 4-core box "
           "exceeds any allowed bound)");
  char line[256];
  std::snprintf(line, sizeof(line),
                "write_p50_ms %.4f ms, write_p99_ms %.4f ms over %zu batches "
                "of %zu rows; %llu compactions",
                Median(run.write_ms), Percentile(run.write_ms, 99),
                run.write_ms.size(), kBatch,
                static_cast<unsigned long long>(run.compactions));
  out.Note(line);
  out.Note("live-mixed: " + std::to_string(base_count) + " x " +
           std::to_string(kDim) + " base, " +
           std::to_string(run.reads.latency_ms.size()) +
           " search latency samples, closed loop of one");
  out.Note("gate: quiesced mismatches " + std::to_string(mismatches) + " of " +
           std::to_string(queries.count()) + ", live count " +
           std::to_string(record.size()));
  out.Note("error_rate " +
           std::to_string(out.attempted == 0
                              ? 0.0
                              : double(out.failed) / double(out.attempted)));

  if (!options.trace) return out;

  out.Layer("mutable.compactions", static_cast<double>(run.compactions),
            "count");
  out.Layer("mutable.compaction_ms_p50",
            HistogramMedian(compaction_ms->bounds(), buckets_before,
                            buckets_after),
            "ms");
  out.Layer("mutable.delta_rows_peak", static_cast<double>(run.delta_peak),
            "count");
  out.Layer("mutable.tombstones_peak", static_cast<double>(run.tombstones_peak),
            "count");
  out.Layer("mutable.write_ms_p50", Median(run.write_ms), "ms");
  out.Layer("mutable.write_ms_p99", Percentile(run.write_ms, 99), "ms");
  out.Layer("storage.bytes_written_per_ingested_byte",
            run.bytes_ingested > 0 ? run.bytes_rewritten / run.bytes_ingested
                                   : 0.0,
            "ratio");

  const PhaseResult traced = run_phase(true);
  out.Layer("obs.trace_overhead",
            Median(traced.reads.latency_ms) / Median(run.reads.latency_ms),
            "ratio");
  ReportWire(out, traced.reads.wire_ms, 0.0);
  ReportServeLayer(out, *service, before, after, traced.reads.traces, "live",
                   queries);
  ReportStorageProbe(out, *service, "live",
                     options.work_dir + "/live-mixed-probe.pdxc",
                     record.size(), log);
  service.reset();
  ReportEngineLayer(
      out,
      [&](bool phase_times) {
        pdx::SearcherConfig config = LiveConfig();
        config.search.collect_phase_times = phase_times;
        return pdx::MakeSearcher(base, config);
      },
      queries, log);
  SummarizeSpans(out, log,
                 options.work_dir + "/spans-live-mixed-" +
                     std::to_string(options.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
