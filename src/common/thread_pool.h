#ifndef TPIIN_COMMON_THREAD_POOL_H_
#define TPIIN_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace tpiin {

/// Cooperative cancellation shared by the tasks of one parallel section.
/// ParallelForChecked cancels it on the first task failure so sibling
/// tasks not yet started are skipped; callers can also cancel it from
/// outside (a pipeline-level stop). Cancellation is a relaxed flag:
/// tasks already running finish normally.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A persistent worker pool with a chunk-stealing parallel-for.
///
/// Workers are created once and reused across ParallelFor calls, so
/// batch workloads (a server answering many DetectSuspiciousGroups
/// requests, the bench sweeps) stop paying thread create/join per call.
/// Work distribution is dynamic: every participant — the calling thread
/// included — repeatedly claims the next unprocessed index from a shared
/// atomic cursor, so uneven per-item cost (subTPIINs vary wildly in
/// size) balances automatically.
///
/// The calling thread always participates and always drains the loop to
/// completion by itself if no worker picks the job up, so ParallelFor
/// makes progress even from inside a pool worker (no nesting deadlock)
/// and even on a pool with zero workers.
class ThreadPool {
 public:
  /// Creates `num_workers` persistent worker threads (0 is allowed; all
  /// ParallelFor calls then run inline on the caller).
  explicit ThreadPool(uint32_t num_workers);

  /// Drains queued work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Runs body(i) for every i in [0, count), on up to `parallelism`
  /// threads (the caller plus at most parallelism - 1 pool workers).
  /// Blocks until every index has been processed. `body` must be safe to
  /// call concurrently from different threads for different indices.
  ///
  /// Error containment: a body that throws no longer takes down the
  /// process (the old contract terminated on a worker thread). The first
  /// exception is captured, remaining indices are skipped, and the
  /// exception is rethrown on the calling thread once the loop has
  /// drained — so a failing task can never deadlock or crash siblings.
  void ParallelFor(size_t count, uint32_t parallelism,
                   const std::function<void(size_t)>& body);

  /// Fallible parallel-for: body returns Status. The first non-OK status
  /// (or thrown exception, captured as StatusCode::kInternal) cancels
  /// `cancel` — indices not yet started above the lowest failing index
  /// are then skipped, those below it still run — and the captured
  /// error with the LOWEST index is returned, so the reported error is
  /// the lowest failing index whatever the worker scheduling. Passing an
  /// already-cancelled token (or cancelling it from outside) skips every
  /// body not yet started and returns Cancelled; `cancel` may be nullptr
  /// (an internal token is used).
  Status ParallelForChecked(size_t count, uint32_t parallelism,
                            const std::function<Status(size_t)>& body,
                            CancelToken* cancel = nullptr);

  /// Shared process-wide pool, sized to the hardware concurrency and
  /// created on first use; never destroyed (workers park on the queue's
  /// condition variable between jobs, so an idle pool costs nothing).
  static ThreadPool& Global();

 private:
  void WorkerLoop();
  void Submit(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Maps a user-facing thread-count knob to an effective count: 0 means
/// auto-detect (std::thread::hardware_concurrency, at least 1), any
/// other value is taken as-is.
uint32_t ResolveThreadCount(uint32_t requested);

}  // namespace tpiin

#endif  // TPIIN_COMMON_THREAD_POOL_H_
