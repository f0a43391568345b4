#ifndef TPIIN_SERVE_SLOW_RING_H_
#define TPIIN_SERVE_SLOW_RING_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tpiin {

/// One captured slow request: the access-log record plus the per-stage
/// detection timings that explain where the time went.
struct SlowRequest {
  std::string request_id;  ///< "c<conn>-r<seq>", as echoed on the wire.
  std::string verb;        ///< "malformed" when the line did not parse.
  std::string status;
  std::string cache;  ///< "none" | "hit" | "miss".
  uint64_t bytes = 0;         ///< Response line size on the wire.
  uint64_t queue_us = 0;      ///< Admission-slot wait.
  uint64_t handle_us = 0;     ///< Parse + evaluate (the rank key).
  uint64_t serialize_us = 0;  ///< FrameResponse.
  uint64_t write_us = 0;      ///< Until the last byte is handed to the kernel.
  uint64_t total_us = 0;      ///< queue + handle + serialize + write.
  double detect_seconds = 0;
  double segment_seconds = 0;
  double mine_seconds = 0;
  double finalize_seconds = 0;
};

/// Keeps the N worst requests by handle_us — slow-query forensics for
/// the `slow` verb. Bounded, mutex-guarded (Record is a handful of
/// compares plus at most one vector write, far off any hot path), and
/// deliberately value-ordered rather than a time ring: under steady
/// load the interesting requests are the outliers, not the most recent.
class SlowRequestRing {
 public:
  explicit SlowRequestRing(size_t capacity) : capacity_(capacity) {}

  SlowRequestRing(const SlowRequestRing&) = delete;
  SlowRequestRing& operator=(const SlowRequestRing&) = delete;

  /// Admits `request` if the ring has room or it is slower than the
  /// current fastest entry (which it then evicts).
  void Record(SlowRequest request) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() < capacity_) {
      entries_.push_back(std::move(request));
      return;
    }
    size_t fastest = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].handle_us < entries_[fastest].handle_us) fastest = i;
    }
    if (request.handle_us > entries_[fastest].handle_us) {
      entries_[fastest] = std::move(request);
    }
  }

  /// The captured requests, slowest first (ties broken by request ID so
  /// the order is deterministic for tests).
  std::vector<SlowRequest> Snapshot() const {
    std::vector<SlowRequest> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out = entries_;
    }
    std::sort(out.begin(), out.end(),
              [](const SlowRequest& a, const SlowRequest& b) {
                if (a.handle_us != b.handle_us) {
                  return a.handle_us > b.handle_us;
                }
                return a.request_id < b.request_id;
              });
    return out;
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SlowRequest> entries_;  ///< Unordered; at most capacity_.
};

}  // namespace tpiin

#endif  // TPIIN_SERVE_SLOW_RING_H_
