// Shared plumbing of the end-to-end benchmark: run options, the metric
// report, latency percentiles, the span log of the traced run, and the
// allocation counter. Each workload (ann_http.cc, exact_scan.cc,
// live_mixed.cc) drives the library only through its public API.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "common/types.h"
#include "index/topk.h"
#include "serve/search_service.h"
#include "storage/vector_set.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few thousand vectors (the self-test).
  bool tiny = false;
  /// Scratch directory for collection files and the span file.
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `end_to_end` is filled by every run;
/// `per_layer` only by the traced run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (sample counts, gate
  /// verdicts, generator lateness).
  std::vector<std::string> notes;

  void Fail(const std::string& why);
  void Note(const std::string& line);
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
};

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// The run's 99th percentile, robust to one burst of outside noise: the
/// median, over up to ten consecutive slices of `samples` (in completion
/// order) of at least 1000 samples each, of each slice's 99th percentile.
/// Fewer than 2000 samples make one slice, the plain 99th percentile.
double SlicedP99(const std::vector<double>& samples);

/// The workload's inputs. The Gaussian mixture is GenerateDataset's at the
/// spec's own (fixed) seed, the same on every run; the run's seed picks
/// which of its rows are served and in what order, and which held-out
/// vectors are the queries. Run-to-run differences are then sampling
/// differences, not a different distribution per seed.
struct Inputs {
  pdx::VectorSet rows;
  pdx::VectorSet queries;
};
Inputs DrawInputs(const pdx::SyntheticSpec& spec, uint64_t seed);

/// Throughput and median latency of a measured phase, each the median over
/// twenty equal time slices of [0, seconds) of that slice's own value, so
/// a burst of outside load on a shared host, or a stall of a few hundred
/// ms, moves them less. `done_s` is
/// each sample's completion time since the phase began.
struct PhaseRates {
  double qps = 0.0;
  double p50_ms = 0.0;
};
PhaseRates SliceMedians(const std::vector<double>& done_s,
                        const std::vector<double>& latency_ms,
                        double seconds);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// Size of a file in bytes; 0 when missing.
uint64_t FileBytes(const std::string& path);

// -- Allocation counter (alloc_counter.cc) ---------------------------------

/// Counts every global operator new while enabled. The benchmark binary
/// replaces the global allocation functions; the library is untouched.
class AllocCounter {
 public:
  static void Enable(bool on);
  static uint64_t Count();
};

// -- Span log (trace.cc) ----------------------------------------------------

/// One timed call into a layer. Times are ms since the log was created.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  uint64_t request = 0;  ///< Shared by every span of one request; 0 = none.
  std::string name;      ///< "<layer>.<call>", e.g. "serve.queue".
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// In-memory span store of the traced run. Disabled, Record is a branch
/// and nothing else, so the untraced runs pay nothing for it.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  double NowMs() const { return Ms(origin_, Clock::now()); }
  double ToMs(Clock::time_point t) const { return Ms(origin_, t); }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// Stores one span and returns its id (0 when disabled).
  uint64_t Record(const std::string& name, double start_ms, double end_ms,
                  uint64_t parent = 0, uint64_t request = 0);

  /// Writes one JSON object per span to `path`.
  bool Write(const std::string& path) const;

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover, summed by the layer prefix of the span name.
  std::vector<std::pair<std::string, double>> SelfTimeByLayer() const;

  size_t size() const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, uint64_t parent = 0)
      : log_(log), name_(std::move(name)), parent_(parent),
        start_ms_(log.NowMs()) {}
  ~ScopedSpan() { log_.Record(name_, start_ms_, log_.NowMs(), parent_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::string name_;
  uint64_t parent_;
  double start_ms_;
};

/// Records the serving-stage children of one traced query under `parent`,
/// laid end to end from `start_ms` (the QueryTrace gives durations, not
/// timestamps). `search_layer` names the layer the search stage belongs to.
void RecordServeStages(SpanLog& log, const pdx::QueryTrace& trace,
                       double start_ms, uint64_t parent, uint64_t request,
                       const std::string& search_layer);

// -- Reference (reference.cc) -----------------------------------------------

/// Exact k-NN by brute force, squared L2 summed in ascending dimension
/// order in float: the order the PDX vertical kernels use, so distances
/// must match the library's exact searchers bit for bit. Ties are broken
/// by id, as TopK does. `ids` maps row r of `rows` to its external id
/// (nullptr = r itself).
std::vector<std::vector<pdx::Neighbor>> BruteForceKnn(
    const float* rows, const uint32_t* ids, size_t count, size_t dim,
    const pdx::VectorSet& queries, size_t k);

/// recall@k of `got` against the exact list `truth`.
double RecallAt(const std::vector<pdx::Neighbor>& got,
                const std::vector<pdx::Neighbor>& truth, size_t k);

/// True when both lists have the same ids and bitwise-equal distances.
bool SameNeighbors(const std::vector<pdx::Neighbor>& a,
                   const std::vector<pdx::Neighbor>& b);

// -- Shared measurement pieces (layers.cc) -----------------------------------

/// Closed-loop in-process load: keeps `window` Submits outstanding, cycling
/// through `collections` and the query pool, until `seconds` elapse.
struct ClosedLoopResult {
  std::vector<double> latency_ms;  ///< Submit -> callback, per query.
  std::vector<double> done_s;      ///< Callback time since the loop began.
  /// Per completed query: pool index, collection index, neighbors.
  struct Answer {
    size_t query = 0;
    size_t collection = 0;
    std::vector<pdx::Neighbor> neighbors;
  };
  std::vector<Answer> answers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Traced runs only: client-observed minus service total, per query.
  std::vector<double> wire_ms;
  std::vector<pdx::QueryTrace> traces;
};
ClosedLoopResult RunClosedLoop(pdx::SearchService& service,
                               const std::vector<std::string>& collections,
                               const pdx::VectorSet& queries, size_t window,
                               double seconds, bool trace, SpanLog& log,
                               const std::vector<std::string>& search_layers);

/// Serving-layer per-layer metrics that every workload reports the same
/// way: QueryTrace stages, batch size and dispatcher busy fraction from
/// Stats() deltas, and allocations per quiescent Submit.
struct ServeSnapshot {
  uint64_t completed = 0;
  uint64_t dispatches = 0;
};
ServeSnapshot TakeServeSnapshot(const pdx::SearchService& service);
void ReportServeLayer(Outcome& out, pdx::SearchService& service,
                      const ServeSnapshot& before, const ServeSnapshot& after,
                      const std::vector<pdx::QueryTrace>& traces,
                      const std::string& collection,
                      const pdx::VectorSet& queries);

/// The wire metrics from per-query wire shares (client minus service time).
void ReportWire(Outcome& out, const std::vector<double>& wire_ms,
                double bytes_per_query);

/// Facade replay of the workload's queries on searchers built directly
/// with MakeSearcher (no service): the build time, engine allocations per
/// query, batch QPS on a pool, then the engine phases and work counters,
/// pruning and kernel rates from a second build with phase timers on.
/// `build(phase_times)` builds the workload's searcher.
using SearcherBuild =
    std::function<pdx::Result<std::unique_ptr<pdx::Searcher>>(bool)>;
void ReportEngineLayer(Outcome& out, const SearcherBuild& build,
                       const pdx::VectorSet& queries, SpanLog& log);

/// Saves the hosted collection `name`, reloads the file in this process,
/// and reports storage.save_s / load_s / file_bytes_per_vector.
void ReportStorageProbe(Outcome& out, pdx::SearchService& service,
                        const std::string& name, const std::string& path,
                        size_t vectors, SpanLog& log);

/// The layer metrics a workload leaves idle, reported as zero so every
/// run emits the same metric set. Adds only names not yet present.
void FillIdleLayers(Outcome& out);

/// Self time per layer from the span log, printed as notes, and the span
/// file written to `path`.
void SummarizeSpans(Outcome& out, const SpanLog& log, const std::string& path);

// -- Workloads ---------------------------------------------------------------

Outcome RunAnnHttp(const RunOptions& options);
Outcome RunExactScan(const RunOptions& options);
Outcome RunLiveMixed(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
