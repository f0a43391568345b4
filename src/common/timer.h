#ifndef TPIIN_COMMON_TIMER_H_
#define TPIIN_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace tpiin {

/// Monotonic wall-clock stopwatch used by the benchmark harnesses and
/// serve's per-request latencies (pipeline stages use stage spans).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates elapsed seconds into a caller-owned double on destruction;
/// lets a driver attribute time to pipeline stages without littering
/// timing code.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() { *sink_ += timer_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  WallTimer timer_;
};

}  // namespace tpiin

#endif  // TPIIN_COMMON_TIMER_H_
