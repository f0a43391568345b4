#include <atomic>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/thread_pool.h"

namespace tpiin {
namespace {

TEST(PoolContainmentTest, ThrowingBodyRethrowsOnCaller) {
  ThreadPool pool(3);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(64, 4,
                       [&](size_t i) {
                         if (i == 7) throw std::runtime_error("boom");
                         ran.fetch_add(1, std::memory_order_relaxed);
                       }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 64u) << "indices after the failure are skipped";
}

TEST(PoolContainmentTest, PoolSurvivesAThrowingJob) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(
                   8, 4, [](size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The workers must still be alive and able to run the next job.
  std::atomic<size_t> ran{0};
  pool.ParallelFor(100, 4, [&](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(PoolContainmentTest, CheckedForReturnsInjectedStatus) {
  ThreadPool pool(3);
  Status status = pool.ParallelForChecked(32, 4, [](size_t i) {
    if (i == 5) return Status::Corruption("bad item 5");
    return Status::OK();
  });
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.ToString().find("bad item 5"), std::string::npos);
}

TEST(PoolContainmentTest, LowestIndexErrorWinsSerially) {
  // With one thread every body runs in index order, so the aggregation
  // contract (lowest failing index reported) is exactly observable.
  ThreadPool pool(0);
  Status status = pool.ParallelForChecked(16, 1, [](size_t i) {
    if (i >= 3) {
      return Status::Internal("fail " + std::to_string(i));
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.ToString().find("fail 3"), std::string::npos);
}

TEST(PoolContainmentTest, LowestIndexErrorAmongRanDeterministic) {
  // Concurrently, the set of bodies that run before cancellation varies,
  // but index 0 always runs (some thread claims it first), so when every
  // body fails the reported error is always index 0's.
  ThreadPool pool(7);
  for (int round = 0; round < 20; ++round) {
    Status status = pool.ParallelForChecked(64, 8, [](size_t i) {
      return Status::Internal("fail " + std::to_string(i));
    });
    ASSERT_TRUE(status.IsInternal());
    EXPECT_NE(status.ToString().find("fail 0"), std::string::npos);
  }
}

TEST(PoolContainmentTest, ErrorCancelsToken) {
  ThreadPool pool(3);
  CancelToken cancel;
  Status status = pool.ParallelForChecked(
      16, 4,
      [](size_t i) {
        if (i == 0) return Status::IOError("down");
        return Status::OK();
      },
      &cancel);
  EXPECT_TRUE(status.IsIOError());
  EXPECT_TRUE(cancel.cancelled());
}

TEST(PoolContainmentTest, PreCancelledTokenSkipsEverything) {
  ThreadPool pool(3);
  CancelToken cancel;
  cancel.Cancel();
  std::atomic<size_t> ran{0};
  Status status = pool.ParallelForChecked(
      32, 4,
      [&](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      &cancel);
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_EQ(ran.load(), 0u);
}

TEST(PoolContainmentTest, CheckedExceptionBecomesInternalStatus) {
  ThreadPool pool(3);
  Status status = pool.ParallelForChecked(8, 4, [](size_t i) -> Status {
    if (i == 2) throw std::runtime_error("exploded");
    return Status::OK();
  });
  EXPECT_TRUE(status.IsInternal());
}

TEST(PoolContainmentTest, CheckedForAllOkRunsEverything) {
  ThreadPool pool(3);
  std::atomic<size_t> ran{0};
  Status status = pool.ParallelForChecked(500, 4, [&](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(ran.load(), 500u);
}

}  // namespace
}  // namespace tpiin
