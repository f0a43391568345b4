#ifndef TPIIN_SERVE_ADMISSION_H_
#define TPIIN_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace tpiin {

/// Admission control for the serve layer: overload degrades into
/// deterministic `busy` responses instead of unbounded queueing or
/// stalls.
///
/// Two nested limits:
///
///  - Connections. At most `max_inflight + max_queue` connections may
///    be alive (accepted and not yet closed) at once. The acceptor
///    calls TryEnterConnection(); a refusal is answered with a one-line
///    `busy` response and an immediate close, on the acceptor thread —
///    so saturation feedback never depends on worker availability.
///
///  - Requests. At most `max_inflight` requests execute concurrently.
///    AcquireRequestSlot() blocks (the bounded "queue"; waiters can
///    never exceed max_queue because connections are bounded above)
///    until a slot frees or Abort() is called, in which case it returns
///    false and the caller answers `busy`.
///
/// All waits are bounded by construction: a slot holder always runs on
/// a live worker thread, so it releases; Abort() (the forced phase of
/// server drain) unblocks every waiter.
class AdmissionController {
 public:
  AdmissionController(size_t max_inflight, size_t max_queue)
      : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
        max_queue_(max_queue) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Acceptor-side gate; false = answer busy and close.
  bool TryEnterConnection() {
    std::lock_guard<std::mutex> lock(mu_);
    if (connections_ >= max_inflight_ + max_queue_) return false;
    ++connections_;
    return true;
  }

  void LeaveConnection() {
    std::lock_guard<std::mutex> lock(mu_);
    --connections_;
  }

  /// Blocks until one of the max_inflight execution slots is free.
  /// False when Abort() ended the wait — the request is refused busy.
  bool AcquireRequestSlot() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock,
             [this] { return aborted_ || inflight_ < max_inflight_; });
    if (aborted_) return false;
    ++inflight_;
    return true;
  }

  void ReleaseRequestSlot() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    cv_.notify_one();
  }

  /// Refuses every current and future slot wait (forced drain). Slots
  /// already held are unaffected — their requests finish normally.
  void Abort() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

  size_t inflight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_;
  }

 private:
  const size_t max_inflight_;
  const size_t max_queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t connections_ = 0;
  size_t inflight_ = 0;
  bool aborted_ = false;
};

}  // namespace tpiin

#endif  // TPIIN_SERVE_ADMISSION_H_
