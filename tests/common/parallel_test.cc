#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

// Global operator new/delete overrides that count each thread's heap
// allocations, so a test can count what one thread allocates.
namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdx {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i, size_t) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsAreDense) {
  ThreadPool pool(3);
  std::atomic<size_t> max_worker{0};
  pool.ParallelFor(500, [&](size_t, size_t worker) {
    size_t seen = max_worker.load();
    while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_LT(max_worker.load(), 3u);
}

TEST(ThreadPoolTest, SizeOneRunsInlineAndInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  // No synchronization needed below precisely because the loop is inline.
  std::vector<size_t> order;
  pool.ParallelFor(64, [&](size_t i, size_t worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  std::vector<size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i, size_t) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ThreadPoolTest, SmallJobsTouchAtMostOneThreadPerItem) {
  ThreadPool pool(8);
  std::mutex mu;
  std::set<std::thread::id> executors;
  pool.ParallelFor(3, [&](size_t, size_t) {
    std::lock_guard<std::mutex> lock(mu);
    executors.insert(std::this_thread::get_id());
  });
  // 3 items -> at most 3 distinct executing threads, however many wake.
  EXPECT_LE(executors.size(), 3u);
}

TEST(ThreadPoolTest, VaryingJobSizesReuseThePoolCorrectly) {
  ThreadPool pool(6);
  for (size_t count : {2u, 500u, 3u, 64u, 1u, 200u}) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(count, [&](size_t i, size_t) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), count * (count - 1) / 2) << "count " << count;
  }
}

TEST(ThreadPoolTest, NestedCallsRunInlineWithEnclosingWorkerId) {
  ThreadPool pool(2);
  std::atomic<size_t> inner_total{0};
  pool.ParallelFor(8, [&](size_t, size_t outer_worker) {
    pool.ParallelFor(10, [&](size_t i, size_t worker) {
      // Re-entrant loops stay on the worker and keep its id, so per-worker
      // scratch indexed by `worker` never aliases another thread's slot.
      EXPECT_EQ(worker, outer_worker);
      inner_total.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8u * 45u);
}

TEST(ThreadPoolTest, CrossPoolCallsStayParallelAndComplete) {
  // Only *same-pool* re-entrancy runs inline; a different pool reached from
  // inside a job keeps its own workers (the serving topology: SearchBatch's
  // pool driven from a task on the shared pool).
  ThreadPool outer(2);
  ThreadPool inner(3);
  std::atomic<size_t> total{0};
  std::atomic<size_t> inner_max_worker{0};
  outer.ParallelFor(6, [&](size_t, size_t) {
    inner.ParallelFor(50, [&](size_t i, size_t worker) {
      size_t seen = inner_max_worker.load();
      while (worker > seen &&
             !inner_max_worker.compare_exchange_weak(seen, worker)) {
      }
      total.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 6u * 1225u);
  EXPECT_LT(inner_max_worker.load(), 3u);
}

TEST(ThreadPoolTest, SandwichedReentrancyRunsInlineWithOriginalWorkerId) {
  // A -> B -> A on one thread: the innermost A-loop must find A's frame
  // below B's on the stack and run inline as A's worker — not submit a
  // fresh job to A under a second worker id (which would alias per-worker
  // scratch indexed by A's ids on this thread).
  ThreadPool a(2);
  ThreadPool b(2);
  std::atomic<size_t> total{0};
  a.ParallelFor(4, [&](size_t, size_t outer_worker) {
    // count == 1 keeps b's part on this thread, so the chain is
    // deterministic.
    b.ParallelFor(1, [&](size_t, size_t) {
      a.ParallelFor(5, [&](size_t i, size_t worker) {
        EXPECT_EQ(worker, outer_worker);
        total.fetch_add(i, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 4u * 10u);
}

TEST(ThreadPoolTest, ConcurrentCallersShareTheWorkers) {
  // The replicated-dispatcher topology: several threads each submit their
  // own loop to ONE pool. Loops run side by side (no caller blocks until
  // another caller's whole loop finishes), every index of every loop runs
  // exactly once, and each caller only ever participates in its own loop.
  ThreadPool pool(4);
  constexpr size_t kCallers = 3;
  constexpr size_t kRounds = 20;
  constexpr size_t kCount = 257;
  std::vector<std::thread> callers;
  std::atomic<size_t> failures{0};
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kCount);
        std::atomic<size_t> sum{0};
        pool.ParallelFor(kCount, [&](size_t i, size_t worker) {
          if (worker >= pool.num_threads()) failures.fetch_add(1);
          hits[i].fetch_add(1, std::memory_order_relaxed);
          sum.fetch_add(i + c, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < kCount; ++i) {
          if (hits[i].load() != 1) failures.fetch_add(1);
        }
        if (sum.load() != kCount * (kCount - 1) / 2 + c * kCount) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ThreadPoolTest, ConcurrentCallersOnSequentialPoolRunInline) {
  // A size-1 pool runs every loop inline on its caller; concurrent callers
  // are each their own loop's worker 0 on their own thread, so nothing
  // serializes and nothing races.
  ThreadPool pool(1);
  std::vector<std::thread> callers;
  std::atomic<size_t> total{0};
  for (size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        pool.ParallelFor(64, [&](size_t, size_t worker) {
          if (worker == 0) total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 64u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](size_t i, size_t) {
                                  if (i == 13) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<size_t> count{0};
  pool.ParallelFor(10, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

// Long loops claim runs of ceil(count / (64 x threads)) items; loops of at
// most 64 x threads items claim one at a time. Every index must run exactly
// once on either side of each run-length step and for a count no run
// length divides.
TEST(ThreadPoolTest, ChunkedClaimsRunEveryIndexExactlyOnce) {
  for (const size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const size_t step = 64 * threads;
    for (const size_t count : {step - 1, step, step + 1, 2 * step - 1,
                               2 * step, 2 * step + 1, size_t{100003}}) {
      std::vector<std::atomic<int>> hits(count);
      std::atomic<size_t> bad_worker{0};
      pool.ParallelFor(count, [&](size_t i, size_t worker) {
        if (worker >= threads) bad_worker.fetch_add(1);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(bad_worker.load(), 0u);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads " << threads << " count " << count << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ThrowInsideARunStillRunsEveryOtherItem) {
  // 10,000 items on 2 threads claim runs of 79: item 500 sits inside one.
  ThreadPool pool(2);
  constexpr size_t kCount = 10000;
  constexpr size_t kThrower = 500;
  std::vector<std::atomic<int>> hits(kCount);
  EXPECT_THROW(pool.ParallelFor(kCount,
                                [&](size_t i, size_t) {
                                  hits[i].fetch_add(1);
                                  if (i == kThrower) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// A pooled loop reuses the pool's job records, so once the caller's
// thread is warm its ParallelFor calls allocate nothing, even when a late-
// waking worker still holds the record of the loop before.
TEST(ThreadPoolTest, WarmParallelForAllocatesNothing) {
  ThreadPool pool(4);
  std::atomic<size_t> sum{0};
  const std::function<void(size_t, size_t)> body = [&sum](size_t i, size_t) {
    sum.fetch_add(i, std::memory_order_relaxed);
  };
  pool.ParallelFor(4, body);  // Warms this thread's frame stack.
  constexpr size_t kCalls = 2000;
  const uint64_t before = t_allocations;
  for (size_t call = 0; call < kCalls; ++call) {
    pool.ParallelFor(call % 2 == 0 ? 4 : 1000, body);
  }
  EXPECT_EQ(t_allocations - before, 0u);
  EXPECT_EQ(sum.load(), 6 + kCalls / 2 * (6 + 499500));
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t, size_t) { FAIL(); });
}

TEST(ParallelForTest, FreeFunctionCoversAllIndices) {
  constexpr size_t kCount = 333;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace pdx
