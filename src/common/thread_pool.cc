#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/metrics.h"

namespace tpiin {

ThreadPool::ThreadPool(uint32_t num_workers) {
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  TPIIN_COUNTER_ADD("pool.tasks_submitted", 1);
  TPIIN_GAUGE_MAX("pool.queue_depth_max",
                  static_cast<int64_t>(depth));
  (void)depth;  // Only read by the (compile-time optional) gauge.
}

void ThreadPool::ParallelFor(size_t count, uint32_t parallelism,
                             const std::function<void(size_t)>& body) {
  if (count == 0) return;

  const uint32_t max_helpers =
      std::min<uint32_t>(num_workers(),
                         parallelism > 0 ? parallelism - 1 : 0);
  const uint32_t helpers = static_cast<uint32_t>(
      std::min<size_t>(max_helpers, count - 1));
  if (helpers == 0) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Shared chunk-stealing state, kept alive by the helper closures. The
  // caller waits for *completed indices*, never for helper arrivals: a
  // queued helper may never be scheduled at all (every worker blocked in
  // a nested ParallelFor), and the caller's own drain can always satisfy
  // completed == count by itself — which is what makes nesting
  // deadlock-free. A helper scheduled after the range is exhausted finds
  // next >= count and exits without touching the body.
  struct JobState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    size_t count;
    std::function<void(size_t)> body;  // Owned: outlives the caller.
    std::mutex mu;
    std::condition_variable done;
    // Containment: the first exception thrown by any body, rethrown on
    // the caller once the loop has drained. `failed` makes the remaining
    // indices no-ops (they still count as completed, so the caller's
    // wait predicate is unaffected).
    std::atomic<bool> failed{false};
    std::exception_ptr first_exception;  // Guarded by mu.
  };
  auto state = std::make_shared<JobState>();
  state->count = count;
  state->body = body;
  TPIIN_COUNTER_ADD("pool.parallel_for_calls", 1);
  TPIIN_COUNTER_ADD("pool.parallel_for_indices", count);

  // `stolen` distinguishes helper-drained indices from the caller's own
  // (counted in bulk after the drain, so the loop stays tight).
  auto drain = [](JobState& job, bool stolen) {
    size_t i;
    size_t processed = 0;
    while ((i = job.next.fetch_add(1, std::memory_order_relaxed)) <
           job.count) {
      if (!job.failed.load(std::memory_order_relaxed)) {
        try {
          job.body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(job.mu);
          if (!job.first_exception) {
            job.first_exception = std::current_exception();
          }
          job.failed.store(true, std::memory_order_relaxed);
        }
      }
      job.completed.fetch_add(1, std::memory_order_release);
      ++processed;
    }
    if (stolen && processed > 0) {
      TPIIN_COUNTER_ADD("pool.indices_stolen", processed);
    }
  };

  for (uint32_t h = 0; h < helpers; ++h) {
    Submit([state, drain] {
      drain(*state, /*stolen=*/true);
      // Lock before notifying so the caller cannot miss the wakeup
      // between its predicate check and its block.
      { std::lock_guard<std::mutex> lock(state->mu); }
      state->done.notify_all();
    });
  }

  drain(*state, /*stolen=*/false);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) ==
           state->count;
  });
  if (state->first_exception) {
    std::rethrow_exception(state->first_exception);
  }
}

Status ThreadPool::ParallelForChecked(
    size_t count, uint32_t parallelism,
    const std::function<Status(size_t)>& body, CancelToken* cancel) {
  CancelToken local;
  CancelToken* token = cancel != nullptr ? cancel : &local;
  if (count == 0) return Status::OK();
  if (token->cancelled()) {
    return Status::Cancelled("parallel section cancelled before start");
  }

  // Lowest-index error wins so the aggregate does not depend on which
  // worker hit its error first. Cancellation skips only indices above
  // the lowest failure so far: a lower index claimed before the cancel
  // but not yet started still runs, so the report is the lowest failing
  // index overall, not merely the lowest among whichever bodies won
  // the race against the cancel.
  struct ErrorState {
    std::mutex mu;
    std::atomic<size_t> first_index{SIZE_MAX};
    Status first_status;
  };
  ErrorState error;

  ParallelFor(count, parallelism, [&](size_t i) {
    if (token->cancelled()) {
      // SIZE_MAX here means the cancel came from the caller: skip all.
      const size_t lowest = error.first_index.load();
      if (lowest == SIZE_MAX || i > lowest) return;
    }
    Status s;
    try {
      s = body(i);
    } catch (const std::exception& e) {
      s = Status::Internal(std::string("uncaught exception in task: ") +
                           e.what());
    } catch (...) {
      s = Status::Internal("uncaught non-std::exception in task");
    }
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(error.mu);
        if (i < error.first_index.load()) {
          error.first_index.store(i);
          error.first_status = std::move(s);
        }
      }
      token->Cancel();
    }
  });

  if (error.first_index.load() != SIZE_MAX) return error.first_status;
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("parallel section cancelled");
  }
  return Status::OK();
}

ThreadPool& ThreadPool::Global() {
  // Intentionally leaked: workers park between jobs, and skipping the
  // destructor avoids static-destruction-order races with client code
  // that might run during shutdown.
  static ThreadPool* pool = new ThreadPool(ResolveThreadCount(0));
  return *pool;
}

uint32_t ResolveThreadCount(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace tpiin
