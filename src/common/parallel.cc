#include "common/parallel.h"

#include <algorithm>

namespace pdx {

namespace {

// The pool jobs this thread is currently executing, innermost last, with
// the worker id held in each. Lets a re-entrant ParallelFor on any pool
// already on this thread's stack run inline under its existing worker id —
// no deadlock on submit_mutex_, and per-worker scratch indexed by worker id
// never aliases another thread's slot.
struct PoolFrame {
  const ThreadPool* pool;
  size_t worker;
};
thread_local std::vector<PoolFrame> tls_pool_frames;

// Innermost frame for `pool` on this thread, or nullptr.
const PoolFrame* FindFrame(const ThreadPool* pool) {
  for (auto it = tls_pool_frames.rbegin(); it != tls_pool_frames.rend();
       ++it) {
    if (it->pool == pool) return &*it;
  }
  return nullptr;
}

// RAII frame push/pop, exception-safe for the inline paths.
class FrameGuard {
 public:
  FrameGuard(const ThreadPool* pool, size_t worker) {
    tls_pool_frames.push_back(PoolFrame{pool, worker});
  }
  ~FrameGuard() { tls_pool_frames.pop_back(); }
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;
};

// Relaxed is enough: the counter is a test/diagnostic aid, never a
// synchronization point.
std::atomic<uint64_t> pool_creation_counter{0};

// Claims each thread makes on a long loop. A claim is one atomic step, so
// a light loop body needs several items per claim; 64 claims per thread
// still leave enough of them to even out threads that run at unequal
// speeds.
constexpr size_t kClaimsPerThread = 64;

// Items per claim: one while count <= kClaimsPerThread * threads (query
// batches and shard fan-outs), then just enough that each thread makes
// about kClaimsPerThread claims.
size_t RunLength(size_t count, size_t threads) {
  const size_t claims = kClaimsPerThread * threads;
  return (count + claims - 1) / claims;
}

}  // namespace

size_t ResolveThreadCount(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(num_threads, kMaxPoolThreads);
}

uint64_t ThreadPool::num_created() {
  return pool_creation_counter.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(size_t num_threads) {
  pool_creation_counter.fetch_add(1, std::memory_order_relaxed);
  num_threads = ResolveThreadCount(num_threads);
  if (num_threads > 1) {
    // A late-waking worker holds at most one finished record, so with one
    // caller one of these is always free: its loops allocate none.
    active_jobs_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      free_jobs_.push_back(std::make_shared<Job>());
    }
  }
  workers_.reserve(num_threads - 1);
  for (size_t w = 1; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerMain(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;

  // Re-entrant call from inside one of this pool's jobs on this thread
  // (directly, or sandwiched through another pool): run inline under the
  // enclosing job's worker id. The id is already exclusively this thread's,
  // so per-worker scratch stays race-free and no deadlock occurs.
  if (const PoolFrame* frame = FindFrame(this)) {
    for (size_t i = 0; i < count; ++i) fn(i, frame->worker);
    return;
  }

  // Sequential pool or trivially small job: run inline as worker 0. A
  // concurrent caller also runs as worker 0 — of its own loop, on its own
  // thread; see the header's worker-id exclusivity caveat.
  if (workers_.empty() || count == 1) {
    FrameGuard guard(this, 0);
    for (size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job = TakeFreeJobLocked();
    job->fn = &fn;
    job->count = count;
    job->run = RunLength(count, num_threads());
    job->next.store(0, std::memory_order_relaxed);
    job->done.store(0, std::memory_order_relaxed);
    active_jobs_.push_back(job);
    ++generation_;
  }
  wake_cv_.notify_all();

  RunJob(*job, 0);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait for items, not for workers: a late-waking worker that never got
    // a slice must not delay the caller. It wakes eventually, finds every
    // active job's `next` exhausted and goes back to sleep.
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) >= count;
    });
    active_jobs_.erase(
        std::find(active_jobs_.begin(), active_jobs_.end(), job));
    error = std::move(job->error);
    free_jobs_.push_back(std::move(job));
  }
  if (error) std::rethrow_exception(error);
}

std::shared_ptr<ThreadPool::Job> ThreadPool::TakeFreeJobLocked() {
  for (auto it = free_jobs_.begin(); it != free_jobs_.end(); ++it) {
    if (it->use_count() == 1) {
      std::shared_ptr<Job> job = std::move(*it);
      free_jobs_.erase(it);
      return job;
    }
  }
  return std::make_shared<Job>();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::WorkerMain(size_t worker_id) {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return stopping_ || generation_ != seen_generation;
    });
    if (stopping_) return;
    seen_generation = generation_;
    // Drain every claimable in-flight loop before sleeping again: with
    // concurrent callers, more than one job may hold unclaimed items. A
    // job submitted mid-drain is caught either by the rescan or by the
    // generation bump on the next wait.
    for (;;) {
      // Own a reference before unlocking. It is dropped at the end of this
      // iteration, with mutex_ held again, as free_jobs_ requires.
      std::shared_ptr<Job> job;
      for (const std::shared_ptr<Job>& candidate : active_jobs_) {
        if (candidate->next.load(std::memory_order_relaxed) <
            candidate->count) {
          job = candidate;
          break;
        }
      }
      if (job == nullptr) break;  // Everything claimed; back to sleep.
      lock.unlock();
      RunJob(*job, worker_id);
      lock.lock();
    }
  }
}

void ThreadPool::RunJob(Job& job, size_t worker_id) {
  FrameGuard guard(this, worker_id);
  for (;;) {
    const size_t first =
        job.next.fetch_add(job.run, std::memory_order_relaxed);
    if (first >= job.count) return;
    const size_t last = std::min(first + job.run, job.count);
    for (size_t i = first; i < last; ++i) {
      try {
        (*job.fn)(i, worker_id);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
    }
    const size_t claimed = last - first;
    if (job.done.fetch_add(claimed, std::memory_order_acq_rel) + claimed ==
        job.count) {
      // Last run: wake the caller. Locking mutex_ orders this notify
      // against the caller's predicate check, so the wakeup can't be lost;
      // notify_all because several callers may be waiting, each on its own
      // job's completion.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  ThreadPool::Shared().ParallelFor(count,
                                   [&fn](size_t i, size_t) { fn(i); });
}

}  // namespace pdx
