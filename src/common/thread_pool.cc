#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace mpq {

namespace {
/// Index of the worker the current thread is, or SIZE_MAX off-pool. Set once
/// per worker thread at startup; identifies the deque Submit should use.
thread_local size_t tls_worker_id = SIZE_MAX;
}  // namespace

struct ThreadPool::Run {
  size_t n = 0;
  size_t grain = 1;
  size_t num_morsels = 0;
  /// The caller's loop body, borrowed: it is only invoked after claiming a
  /// morsel, and the caller cannot return before that morsel completes.
  const std::function<Status(size_t, size_t)>* fn = nullptr;
  std::atomic<size_t> next_morsel{0};
  std::atomic<size_t> morsels_done{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t error_morsel = SIZE_MAX;  // guarded by mu
  Status error;                    // guarded by mu
};

ThreadPool::ThreadPool(size_t num_threads) {
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  accepting_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Drain: a task accepted during shutdown (e.g. submitted by a worker that
  // was mid-task when stop_ was set) may still sit in a queue after the
  // workers exited. Close each queue under its mutex — any Submit racing the
  // drain then rejects instead of stranding work — and run the leftovers on
  // this thread, so every accepted task executes exactly once. Tasks that
  // re-submit during the drain land in a not-yet-closed queue (and get
  // drained in turn) or are rejected; either way nothing dangles.
  for (auto& q : queues_) {
    std::deque<std::function<void()>> leftover;
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->closed = true;
      leftover.swap(q->tasks);
    }
    for (auto& task : leftover) task();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return true;
  }
  if (!accepting_.load(std::memory_order_acquire)) return false;
  size_t q = tls_worker_id;
  if (q >= queues_.size()) {
    q = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    if (queues_[q]->closed) return false;
    queues_[q]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Pass through wake_mu_ before notifying: a worker that checked pending_
  // under the mutex but has not blocked yet would otherwise miss this
  // wake-up and sleep with the task queued.
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  wake_cv_.notify_one();
  return true;
}

bool ThreadPool::PopTask(size_t preferred, std::function<void()>* out) {
  size_t n = queues_.size();
  if (n == 0) return false;
  // Own queue LIFO first, then steal FIFO round-robin from siblings.
  if (preferred < n) {
    std::lock_guard<std::mutex> lock(queues_[preferred]->mu);
    if (!queues_[preferred]->tasks.empty()) {
      *out = std::move(queues_[preferred]->tasks.back());
      queues_[preferred]->tasks.pop_back();
      return true;
    }
  }
  size_t start = preferred < n ? preferred + 1 : 0;
  for (size_t k = 0; k < n; ++k) {
    size_t i = (start + k) % n;
    if (i == preferred) continue;
    std::lock_guard<std::mutex> lock(queues_[i]->mu);
    if (!queues_[i]->tasks.empty()) {
      *out = std::move(queues_[i]->tasks.front());
      queues_[i]->tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  if (!PopTask(tls_worker_id, &task)) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t id) {
  tls_worker_id = id;
  for (;;) {
    std::function<void()> task;
    if (PopTask(id, &task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_) return;
    if (pending_.load(std::memory_order_acquire) > 0) continue;
    wake_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

bool ThreadPool::ClaimAndRunOne(Run& run) {
  size_t m = run.next_morsel.fetch_add(1, std::memory_order_relaxed);
  if (m >= run.num_morsels) return false;
  // Every morsel runs even after a failure elsewhere: that keeps the
  // reported error (lowest failing morsel) deterministic across thread
  // counts, and errors terminate the whole query anyway.
  size_t begin = m * run.grain;
  Status st = (*run.fn)(begin, std::min(begin + run.grain, run.n));
  morsels_executed_.fetch_add(1, std::memory_order_relaxed);
  morsels_pending_.fetch_sub(1, std::memory_order_relaxed);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(run.mu);
    if (m < run.error_morsel) {
      run.error_morsel = m;
      run.error = std::move(st);
    }
  }
  if (run.morsels_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      run.num_morsels) {
    std::lock_guard<std::mutex> lock(run.mu);
    run.cv.notify_all();
  }
  return true;
}

bool ThreadPool::PumpOne() {
  for (;;) {
    std::shared_ptr<Run> run;
    {
      std::lock_guard<std::mutex> lock(runs_mu_);
      while (!runs_.empty() &&
             runs_.front()->next_morsel.load(std::memory_order_relaxed) >=
                 runs_.front()->num_morsels) {
        runs_.pop_front();
      }
      if (runs_.empty()) return false;
      run = runs_.front();
    }
    // A concurrent claimer may take the last morsel between the check and
    // the claim; loop so the exhausted run gets popped and the next one
    // tried, instead of reporting a drained FIFO early.
    if (ClaimAndRunOne(*run)) return true;
  }
}

Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                   const std::function<Status(size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (grain == 0) grain = 1;
  size_t num_morsels = (n + grain - 1) / grain;
  if (pool == nullptr || pool->size() == 0 || num_morsels == 1) {
    for (size_t m = 0; m < num_morsels; ++m) {
      size_t begin = m * grain;
      if (pool != nullptr) {
        pool->morsels_executed_.fetch_add(1, std::memory_order_relaxed);
      }
      MPQ_RETURN_NOT_OK(fn(begin, std::min(begin + grain, n)));
    }
    return Status::OK();
  }

  auto run = std::make_shared<ThreadPool::Run>();
  run->n = n;
  run->grain = grain;
  run->num_morsels = num_morsels;
  run->fn = &fn;
  pool->morsels_pending_.fetch_add(num_morsels, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pool->runs_mu_);
    pool->runs_.push_back(run);
  }

  // Wake workers via pump tasks. Each pump drains the *global* FIFO, not
  // just this run — an idle worker woken for query A keeps helping query B
  // afterwards, which is what makes the queue shared. Submit may reject
  // during pool shutdown; that only costs parallelism, the caller loop
  // below claims every remaining morsel itself.
  size_t num_helpers = std::min(pool->size(), num_morsels - 1);
  for (size_t i = 0; i < num_helpers; ++i) {
    (void)pool->Submit([pool] {
      while (pool->PumpOne()) {
      }
    });
  }

  // The caller claims its own morsels first (its run never starves), then
  // helps other runs while waiting for morsels still running elsewhere. The
  // timed wait covers the race between the final completion and this thread
  // going to sleep.
  auto finished = [&] {
    return run->morsels_done.load(std::memory_order_acquire) >= num_morsels;
  };
  for (;;) {
    if (pool->ClaimAndRunOne(*run)) continue;
    if (finished()) break;
    if (pool->PumpOne()) continue;
    std::unique_lock<std::mutex> lock(run->mu);
    if (run->cv.wait_for(lock, std::chrono::milliseconds(1), finished)) break;
  }

  std::lock_guard<std::mutex> lock(run->mu);
  return run->error_morsel == SIZE_MAX ? Status::OK() : run->error;
}

}  // namespace mpq
