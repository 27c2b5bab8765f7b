// A small work-stealing thread pool plus ParallelFor, the engine's one
// parallel loop.
//
// Each worker owns a deque: it pops its own work LIFO (cache locality) and
// steals FIFO from siblings when empty. Threads that must block on pool work
// outside a loop (fragment drains, subtree and future waiters) never idle —
// they run queued tasks while waiting, which makes nested submission from
// inside pool tasks deadlock-free at any pool size.
//
// ParallelFor is morsel-driven. A "morsel" is a fixed [begin, end) index
// range; each ParallelFor call registers its morsels as one *run* in the
// pool's global run FIFO, and pump tasks on the workers drain the oldest
// run first, so every concurrent query draws from one queue. Morsel
// boundaries depend only on (n, grain) — never on the number of threads or
// the interleaving — so per-morsel results merged in morsel order are
// bit-identical at 1, 2, or N threads.

#ifndef MPQ_COMMON_THREAD_POOL_H_
#define MPQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace mpq {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 makes every Submit run inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task`. From a worker thread, pushes onto that worker's own
  /// deque (stolen by siblings when they run dry); otherwise round-robins.
  /// With zero workers the task runs inline. Returns whether the task was
  /// accepted: once destruction begins, Submit rejects (returns false)
  /// instead of enqueueing work that would never run — every task Submit
  /// accepted is guaranteed to execute, even those enqueued by in-flight
  /// workers during shutdown (the destructor drains stragglers inline).
  bool Submit(std::function<void()> task);

  /// Runs one queued task on the calling thread, if any. Returns whether a
  /// task was run. Blocking waiters call this in a loop to keep making
  /// progress instead of idling.
  bool TryRunOneTask();

  /// Morsels ParallelFor has run over this pool since construction (inline
  /// and pooled).
  uint64_t morsels_executed() const {
    return morsels_executed_.load(std::memory_order_relaxed);
  }
  /// Morsels registered by ParallelFor but not yet run — the queue-depth
  /// gauge.
  uint64_t morsels_pending() const {
    return morsels_pending_.load(std::memory_order_relaxed);
  }

 private:
  friend Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                            const std::function<Status(size_t, size_t)>& fn);

  /// One ParallelFor call's morsels (defined in thread_pool.cc). Pump tasks
  /// hold it via shared_ptr, so one that runs after the call returned still
  /// finds valid (exhausted) state.
  struct Run;

  struct WorkQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
    /// Set (under `mu`) by the destructor right before it drains this queue;
    /// a Submit that lost the race to the drain sees it and rejects instead
    /// of stranding a task in a queue nothing will ever pop again.
    bool closed = false;
  };

  void WorkerLoop(size_t id);
  bool PopTask(size_t preferred, std::function<void()>* out);
  /// Claims and runs one morsel of `run`. Returns false when `run` has no
  /// unclaimed morsels left.
  bool ClaimAndRunOne(Run& run);
  /// Claims and runs one morsel of the oldest run with work left, popping
  /// exhausted runs off the FIFO. Returns false when the FIFO is drained.
  bool PumpOne();

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;  // guarded by wake_mu_
  /// Fast-path shutdown gate checked by Submit before touching any queue.
  std::atomic<bool> accepting_{true};
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};

  std::mutex runs_mu_;
  std::deque<std::shared_ptr<Run>> runs_;  // guarded by runs_mu_; oldest first
  std::atomic<uint64_t> morsels_executed_{0};
  std::atomic<uint64_t> morsels_pending_{0};
};

/// Runs `fn(begin, end)` over [0, n) in morsels of `grain` indices. The run
/// joins the pool's global FIFO and pool workers help; the calling thread
/// claims its own morsels first, then pumps other runs while waiting. It
/// never runs an arbitrary pool task: the caller may hold an admission slot,
/// and an arbitrary task can be another query that blocks on admission —
/// nest a few of those and every thread parks under a suspended query.
/// Morsel work never blocks, so pumping is always safe. Morsel boundaries
/// depend only on `n` and `grain`; on error the Status of the lowest-index
/// failing morsel is returned. Runs inline when `pool` is null, has no
/// workers, or n fits in one morsel.
Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                   const std::function<Status(size_t, size_t)>& fn);

}  // namespace mpq

#endif  // MPQ_COMMON_THREAD_POOL_H_
