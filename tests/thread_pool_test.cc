// Tests for the work-stealing ThreadPool and ParallelFor, its morsel-driven
// parallel loop: exactly-once coverage, thread-count-independent morsel
// boundaries, lowest-index errors, inline runs, and concurrent runs sharing
// the pool's one run queue.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mpq {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) {
    if (!pool.TryRunOneTask()) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Submit([&] { ran = 1; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPoolTest, SubmitFromWorkerThread) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&] {
    // Nested submission lands on the submitting worker's own deque.
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    done.fetch_add(1);
  });
  while (done.load() < 11) {
    if (!pool.TryRunOneTask()) std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 11);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    Status st = ParallelFor(&pool, kN, 64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
    EXPECT_EQ(pool.morsels_executed(), (kN + 63) / 64) << "workers " << workers;
    EXPECT_EQ(pool.morsels_pending(), 0u) << "workers " << workers;
  }
}

TEST(ParallelForTest, NullAndZeroWorkerPoolsRunInline) {
  // Without workers every morsel runs on the calling thread, in order.
  ThreadPool empty(0);
  const std::thread::id caller = std::this_thread::get_id();
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &empty}) {
    std::vector<std::pair<size_t, size_t>> morsels;
    Status st = ParallelFor(pool, 100, 7, [&](size_t begin, size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      morsels.emplace_back(begin, end);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(morsels.size(), 15u);
    for (size_t m = 0; m < morsels.size(); ++m) {
      EXPECT_EQ(morsels[m].first, m * 7);
      EXPECT_EQ(morsels[m].second, std::min<size_t>(m * 7 + 7, 100));
    }
  }
  EXPECT_EQ(empty.morsels_executed(), 15u);
}

TEST(ParallelForTest, MorselBoundariesIndependentOfThreads) {
  // The morsel partition must depend only on (n, grain) — the property that
  // makes batch-order merges bit-identical at 1, 2, or 8 threads.
  std::vector<std::vector<std::pair<size_t, size_t>>> partitions;
  for (size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> morsels;
    Status st = ParallelFor(&pool, 1000, 128, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      morsels.emplace_back(begin, end);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    std::sort(morsels.begin(), morsels.end());
    partitions.push_back(std::move(morsels));
  }
  EXPECT_EQ(partitions[0], partitions[1]);
  EXPECT_EQ(partitions[1], partitions[2]);
}

TEST(ParallelForTest, ReportsLowestMorselError) {
  ThreadPool pool(4);
  Status st = ParallelFor(&pool, 1000, 10, [&](size_t begin, size_t) {
    if (begin >= 500) {
      return Status::Internal("morsel " + std::to_string(begin));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // Which morsels run after failure is racy, but the reported error is
  // always the lowest failing morsel index.
  EXPECT_EQ(st.message(), "morsel 500");
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  Status st = ParallelFor(&pool, 8, 1, [&](size_t, size_t) {
    return ParallelFor(&pool, 64, 8, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 8u * 64u);
}

TEST(ThreadPoolTest, DestructorRunsEveryAcceptedTask) {
  // Shutdown stress: destroy the pool while its queues are stuffed. Every
  // task Submit accepted must run exactly once — either by a worker or by
  // the destructor's inline drain — and rejected tasks must run zero times.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    {
      ThreadPool pool(2);
      for (int i = 0; i < 500; ++i) {
        if (pool.Submit([&] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
      // Destructor fires with most of the 500 still queued.
    }
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, SubmitDuringShutdownRunsOrRejectsCleanly) {
  // Tasks that resubmit from inside workers while the destructor races
  // them: every accepted task still runs exactly once, and a Submit that
  // loses the race to the drain returns false instead of stranding work
  // (or worse, touching freed queues).
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    auto pool = std::make_unique<ThreadPool>(2);
    ThreadPool* p = pool.get();
    std::function<void()> resubmit = [&, p] {
      executed.fetch_add(1);
      for (int i = 0; i < 2; ++i) {
        if (p->Submit([&] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    };
    for (int i = 0; i < 100; ++i) {
      if (p->Submit(resubmit)) accepted.fetch_add(1);
    }
    // Destroy immediately: workers are mid-resubmission, the drain must
    // pick up stragglers they enqueued and reject the ones it closed out.
    pool.reset();
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ParallelForTest, CallerClaimsOwnMorselsWhileWorkerBusy) {
  // The only worker is parked on a gate task with another task queued
  // behind it. ParallelFor's caller must claim every morsel itself — the
  // gate only opens after ParallelFor returns — and must not inline the
  // queued task: an arbitrary pool task may block on admission.
  ThreadPool pool(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> queued_ran{false};
  pool.Submit([&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!entered.load()) std::this_thread::yield();
  pool.Submit([&] { queued_ran.store(true); });

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> covered{0};
  Status st = ParallelFor(&pool, 256, 16, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered.fetch_add(end - begin);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(covered.load(), 256u);
  EXPECT_FALSE(queued_ran.load());
  EXPECT_EQ(pool.morsels_executed(), 16u);
  EXPECT_EQ(pool.morsels_pending(), 0u);
  release.store(true);
  while (!queued_ran.load()) std::this_thread::yield();
}

TEST(ParallelForTest, ConcurrentRunsShareOnePoolQueue) {
  // N caller threads each start a run; workers pump the pool's one FIFO.
  // Every run must cover its own range exactly once with no cross-talk,
  // and the pool counters must account for every morsel of every run.
  ThreadPool pool(2);
  constexpr size_t kRuns = 8;
  constexpr size_t kN = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kRuns);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  std::vector<Status> results(kRuns);
  for (size_t r = 0; r < kRuns; ++r) {
    callers.emplace_back([&, r] {
      results[r] = ParallelFor(&pool, kN, 64, [&, r](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[r][i].fetch_add(1);
        return Status::OK();
      });
    });
  }
  for (auto& t : callers) t.join();
  for (size_t r = 0; r < kRuns; ++r) {
    ASSERT_TRUE(results[r].ok()) << "run " << r;
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[r][i].load(), 1) << "run " << r << " index " << i;
    }
  }
  EXPECT_EQ(pool.morsels_executed(), kRuns * (kN / 64));
  EXPECT_EQ(pool.morsels_pending(), 0u);
}

}  // namespace
}  // namespace mpq
