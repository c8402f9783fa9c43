#ifndef PDX_COMMON_PARALLEL_H_
#define PDX_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pdx {

/// Upper bound on any thread-count knob (ThreadPool size,
/// SearcherConfig::threads, ServiceConfig::threads). A value above this is
/// almost certainly a unit mistake (microseconds, bytes); construction-time
/// validation rejects it and runtime setters clamp to it.
inline constexpr size_t kMaxPoolThreads = 256;

/// The one place the thread-count semantic lives, shared by ThreadPool,
/// Searcher::SearchBatch, ValidateSearcherConfig and the serving layer:
/// 0 = one thread per hardware thread (at least 1); anything else is taken
/// literally, clamped to kMaxPoolThreads. The returned count includes the
/// calling thread, so 1 means "fully sequential, spawn nothing".
size_t ResolveThreadCount(size_t num_threads);

/// A persistent pool of worker threads executing counted parallel loops.
///
/// Workers are spawned once and reused across ParallelFor calls, so the
/// per-call cost is a wakeup rather than thread creation — cheap enough to
/// sit on the query path (Searcher::SearchBatch) as well as on setup paths.
///
/// `num_threads` counts the *calling* thread too: a pool of size 1 spawns
/// nothing and runs every loop inline on the caller, byte-for-byte
/// identical to a sequential loop. This is the paper-methodology mode —
/// benchmarks that must stay single-threaded use threads = 1 and measure
/// exactly the code they measured before.
///
/// Several threads may call ParallelFor concurrently: in-flight loops run
/// side by side, sharing the spawned workers (the serving layer's N
/// dispatchers each fan a batch out over the one shared pool). Each caller
/// participates only in its *own* loop, as worker 0; spawned workers
/// (ids 1..num_threads()-1) claim items from any in-flight loop. Because a
/// caller always drives its own loop, every loop completes even when all
/// workers are busy elsewhere.
///
/// Threads claim a run of consecutive items per atomic step. A loop of at
/// most 64 x num_threads() items (every query batch and shard fan-out)
/// claims one item at a time; a longer one claims
/// ceil(count / (64 x num_threads())) items at a time, so each thread makes
/// about 64 claims and a light loop body is not dominated by the claim.
/// The run length changes only which thread runs an item: worker ids,
/// nesting and the exception contract below are the same for every run
/// length.
class ThreadPool {
 public:
  /// `num_threads` = total threads including the caller, resolved through
  /// ResolveThreadCount (0 = one per hardware thread). A pool of size n
  /// spawns n-1 workers.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads a loop can run on (spawned workers + the caller).
  size_t num_threads() const { return workers_.size() + 1; }

  /// True when the pool spawned no workers: every loop runs inline on the
  /// caller, byte-for-byte a sequential loop.
  bool is_sequential() const { return workers_.empty(); }

  /// Process-wide count of ThreadPool constructions. Serving code shares
  /// one pool across searchers; tests snapshot this before a query burst
  /// and assert it did not move — proof no pool was built on the query
  /// path.
  static uint64_t num_created();

  /// Runs fn(item, worker) for item in [0, count); `worker` is a dense id
  /// in [0, num_threads()), stable within one call — per-worker scratch
  /// (e.g. one PdxearchEngine each) can be indexed by it. The caller
  /// participates as worker 0 and returns as soon as every item is done
  /// (not when every woken worker has gone idle again). Exceptions thrown
  /// by `fn` are rethrown on the caller (first one wins) after every other
  /// item has run, the rest of a thrower's run included; a loop that runs
  /// inline stops at the throw. Re-entrant calls from inside this pool's
  /// own job on the same thread — directly, or sandwiched through another
  /// pool — run inline under the enclosing job's worker id, so scratch
  /// indexed by worker id stays race-free across nesting, and no deadlock
  /// occurs.
  ///
  /// Concurrent calls from distinct threads are supported and their loops
  /// run side by side. Worker-id exclusivity then has one caveat: a
  /// spawned worker's id is exclusive to its OS thread at all times, but
  /// EVERY concurrent caller runs as worker 0 of its own loop. Code that
  /// indexes scratch on one shared object by worker id must therefore
  /// either guarantee a single concurrent caller per object (the facade's
  /// single-querier SearchBatch contract) or partition the scratch per
  /// caller (the serving layer's per-dispatcher slot bands over
  /// SearchBatchWith).
  void ParallelFor(size_t count,
                   const std::function<void(size_t, size_t)>& fn);

  /// Process-wide pool sized to the hardware, used by the free ParallelFor
  /// below. Constructed on first use.
  static ThreadPool& Shared();

 private:
  // One parallel loop's shared state. Held via shared_ptr so a worker that
  // wakes late (after the caller has already returned, possibly after a
  // newer job was submitted) still holds a consistent {fn, count, next}
  // triple: it finds `next` exhausted and leaves, instead of racing a newer
  // job's counters. Finished jobs go back to free_jobs_ and are reused, so
  // a warm pool allocates none.
  struct Job {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t count = 0;
    size_t run = 1;               ///< Items per claim (RunLength).
    std::atomic<size_t> next{0};  ///< First item of the next claim.
    std::atomic<size_t> done{0};  ///< Items fully processed.
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  void WorkerMain(size_t worker_id);
  // Caller/worker loop: claim runs of items until `job` is exhausted.
  void RunJob(Job& job, size_t worker_id);
  // A job record no worker holds, reused from free_jobs_ when one is there.
  // Called with mutex_ held.
  std::shared_ptr<Job> TakeFreeJobLocked();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_cv_;  // generation_ bumped or stopping_.
  std::condition_variable done_cv_;  // some job's done reached its count.
  uint64_t generation_ = 0;
  bool stopping_ = false;
  // Every loop currently in flight, oldest first. Each caller appends its
  // own job, drives it as worker 0, and removes it once done; spawned
  // workers claim items from whichever active job still has some.
  std::vector<std::shared_ptr<Job>> active_jobs_;
  // Finished jobs, one per thread at construction (more only when
  // concurrent callers need them). Workers take and drop their references
  // under mutex_, so under it a use_count() of 1 means no late-waking
  // worker still holds the record.
  std::vector<std::shared_ptr<Job>> free_jobs_;
};

/// Runs fn(i) for i in [0, count) across hardware threads, on the shared
/// pool. Used on *setup* paths (index construction, collection
/// transformation, ground-truth computation). Measured search code stays
/// single-threaded unless it opts into a pool explicitly, matching the
/// paper's methodology of deactivating multi-threading in benchmarks.
void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

}  // namespace pdx

#endif  // PDX_COMMON_PARALLEL_H_
