#ifndef TPIIN_SERVE_CACHE_H_
#define TPIIN_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace tpiin {

/// A bounded, thread-safe LRU cache from string keys to shared
/// immutable values — the serve layer's result cache. Values are
/// handed out as shared_ptr<const V>, so an entry evicted while a
/// request still holds it stays alive until the request finishes.
///
/// Keys embed the snapshot CRC and the detector-option fingerprint
/// (see QueryService::BundleKey), so two snapshots or two option sets
/// can never collide: a different file or a different budget is a
/// different key, not a stale hit.
///
/// `capacity == 0` disables the cache entirely (every Get misses and
/// Put is a no-op) — the "cold every time" configuration the
/// byte-identity tests diff against.
///
/// Hit/miss/eviction counts are written to the caller-provided
/// obs Counters (nullable) and mirrored in local atomics for the
/// `stats` verb.
template <typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity, Counter* hit_counter = nullptr,
                    Counter* miss_counter = nullptr)
      : capacity_(capacity),
        hit_counter_(hit_counter),
        miss_counter_(miss_counter) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullptr.
  std::shared_ptr<const V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      if (miss_counter_ != nullptr) miss_counter_->Add(1);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    if (hit_counter_ != nullptr) hit_counter_->Add(1);
    return it->second->value;
  }

  /// Inserts (or replaces) `key`, evicting the least recently used
  /// entry when over capacity.
  void Put(const std::string& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

  /// The resident value of `key`, or nullptr, with no recency update
  /// and no counters — test introspection.
  std::shared_ptr<const V> Peek(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->value;
  }

  /// True iff `key` is resident; Peek's no-side-effect rules.
  bool Contains(const std::string& key) const { return Peek(key) != nullptr; }

  /// Evicts every entry whose key starts with `prefix` and returns how
  /// many were dropped. The hot-reload path uses this to discard a
  /// retired generation's entries (keys embed the snapshot CRC, so a
  /// dead generation is exactly one prefix) without disturbing the live
  /// generation's warm entries. Counted as evictions.
  size_t EvictKeysWithPrefix(const std::string& prefix) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.compare(0, prefix.size(), prefix) == 0) {
        index_.erase(it->key);
        it = lru_.erase(it);
        ++evictions_;
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  size_t capacity() const { return capacity_; }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
  };

  const size_t capacity_;
  Counter* const hit_counter_;
  Counter* const miss_counter_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<std::string, typename std::list<Entry>::iterator>
      index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tpiin

#endif  // TPIIN_SERVE_CACHE_H_
