#ifndef TPIIN_SERVE_SERVICE_H_
#define TPIIN_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/arena_pool.h"
#include "core/detector.h"
#include "core/scoring.h"
#include "fusion/tpiin.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace tpiin {

/// Options of the query engine (the socket-independent half of `tpiin
/// serve`; src/serve/server.h owns the transport half).
struct ServiceOptions {
  /// Detector threads per request (0 = auto-detect). Results are
  /// bit-identical at any count, so this is purely a latency/throughput
  /// knob.
  uint32_t threads = 0;

  /// Default per-request budget, overridable (field by field) by the
  /// request itself. Deterministic caps (max_sub_nodes/max_sub_arcs)
  /// participate in the cache key; deadlines do not — a run a deadline
  /// actually truncated is answered `degraded` and never cached.
  RunBudget default_budget;

  /// Capacity of the per-subTPIIN rescore-payload cache. 0 disables
  /// caching entirely (the byte-identity tests' cold configuration).
  size_t cache_entries = 256;

  /// Capacity of the detection-bundle cache (full detection per
  /// distinct (snapshot CRC, structural caps) key). Bundles are
  /// what `groups` and `explain` read; distinct budgets are distinct
  /// entries.
  size_t bundle_cache_entries = 4;

  /// Hard per-request wall-clock ceiling (seconds; 0 = none), applied
  /// on top of any request-supplied deadline_ms: the effective deadline
  /// is the sooner of the two. A request the ceiling truncates is
  /// answered `degraded` (and never cached) instead of monopolizing a
  /// connection slot for minutes. The CLI's --request-deadline-ms.
  double request_deadline_seconds = 0;
};

/// What evaluating one request cost, for the access log and the slow
/// ring. Filled (when the caller passes one) by QueryService::Handle;
/// all zeros/kNone for verbs that touch no cache (the daemon's verbs,
/// errors).
struct RequestTelemetry {
  enum class Cache { kNone, kHit, kMiss };

  /// Whether the verb's backing cache (bundle cache for groups/explain,
  /// sub cache for rescore) answered. A single-flight follower counts
  /// as a miss: the caller experienced cold-path latency.
  Cache cache = Cache::kNone;

  /// Per-stage detection timings (seconds) of the run that produced the
  /// answer; zeros on cache hits and non-detection verbs.
  double detect_seconds = 0;
  double segment_seconds = 0;
  double mine_seconds = 0;
  double finalize_seconds = 0;
};

/// A full detection run — the shared substrate of the `groups` and
/// `explain` verbs, computed once per (snapshot CRC, structural caps)
/// and cached.
struct DetectionBundle {
  DetectionResult detection;

  /// The detection's scoring, computed once on first use (std::call_once):
  /// only `explain` reads it, so a what-if `groups` never scores. The
  /// default-budget bundle is scored when it is built (GetBundle).
  const ScoringResult& Scoring(const Tpiin& net) const;

  /// Whether Scoring has run yet (introspection for tests).
  bool scoring_computed() const {
    return scoring_computed_.load(std::memory_order_acquire);
  }

  /// The full susGroup.txt bytes and their JSON-escaped wire form.
  struct GroupsExport {
    std::string text;
    std::shared_ptr<const std::string> escaped;
  };

  /// The full `groups` export, rendered and escaped on first use and
  /// shared by every later request: a cached full `groups` costs one
  /// copy of `text` (Response::payload) and none of the wire form.
  /// Concurrent first requests render it once (std::call_once). A
  /// bundle that only ever answers filtered `groups?company=` or
  /// `explain` (what-if keys, typically) never renders it. The render
  /// runs on up to `num_threads` threads (0 = auto-detect).
  const GroupsExport& Export(const Tpiin& net,
                             uint32_t num_threads = 0) const;

  /// Whether Export has rendered the export yet (introspection for
  /// tests).
  bool export_rendered() const {
    return export_rendered_.load(std::memory_order_acquire);
  }

 private:
  mutable std::once_flag scoring_once_;
  mutable ScoringResult scoring_;
  mutable std::atomic<bool> scoring_computed_{false};
  mutable std::once_flag export_once_;
  mutable GroupsExport export_;
  mutable std::atomic<bool> export_rendered_{false};
};

/// The cache/arena substrate shared by every generation a serving
/// daemon loads across hot-reloads. Keys embed the snapshot CRC, so
/// generations partition naturally inside one cache; sharing (rather
/// than one cache per generation) means a same-CRC no-op reload keeps
/// every warm entry, and capacity bounds total memory across
/// generations instead of per generation. The SnapshotRegistry owns
/// one and wires it into each generation's QueryService; standalone
/// services (tests, single-shot tools) let QueryService create a
/// private one.
struct ServeSharedState {
  ServeSharedState(const ServiceOptions& options, MetricsRegistry* metrics);

  ArenaPool arena_pool;
  LruCache<DetectionBundle> bundle_cache;
  LruCache<std::string> sub_cache;
};

/// The serve verbs whose kServeVerbs side is kService, evaluated against
/// one loaded TPIIN (normally a SnapshotView's net). Thread-safe: Handle
/// may be called concurrently from any number of transport threads;
/// caches are internally locked and the network itself is immutable.
///
/// Byte-identity contract: for the same snapshot and options, the
/// `groups` payload equals the batch `detect --out` susGroup.txt bytes
/// and the `explain` payload equals the batch `tpiin explain` stdout,
/// cache hot or cold, at any thread count.
class QueryService {
 public:
  /// `net` must outlive the service. `snapshot_crc` keys the caches
  /// (SnapshotView::header_crc(); any stable content fingerprint works
  /// for tests). `metrics` (nullable) receives serve.cache.* counters.
  /// This form creates a private ServeSharedState — the standalone
  /// (non-hot-reloading) configuration.
  QueryService(const Tpiin& net, uint32_t snapshot_crc,
               const ServiceOptions& options, MetricsRegistry* metrics);

  /// The hot-reload form: caches and the arena pool live in `shared`,
  /// owned by the SnapshotRegistry and outliving any one generation's
  /// service. Entries this service writes are keyed by its CRC, so
  /// distinct generations never collide inside the shared caches.
  QueryService(const Tpiin& net, uint32_t snapshot_crc,
               const ServiceOptions& options, ServeSharedState& shared);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Evaluates one request. Never throws; failures, a verb outside the
  /// table (UnknownVerbError) and a daemon-side verb among them, become
  /// `status: error` responses. `status: degraded` marks sound-but-
  /// partial payloads (a binding budget). `telemetry` (nullable)
  /// receives what the evaluation cost (cache outcome, stage timings).
  Response Handle(const Request& request,
                  RequestTelemetry* telemetry = nullptr);

  /// Cache introspection for the stats verb and tests.
  const LruCache<DetectionBundle>& bundle_cache() const {
    return shared_->bundle_cache;
  }
  const LruCache<std::string>& sub_cache() const { return shared_->sub_cache; }

  /// The cached bundle `request` would be answered from, or null; a
  /// peek that moves no counter and no recency (tests).
  std::shared_ptr<const DetectionBundle> PeekBundle(
      const Request& request) const {
    return shared_->bundle_cache.Peek(BundleKey(EffectiveBudget(request)));
  }

  /// Marks this service's generation as retired: the snapshot it reads
  /// was superseded by a hot-reload. In-flight requests finish normally
  /// (the Tpiin stays mapped until the generation's last shared_ptr
  /// drops) but stop writing to the shared caches, so a request that
  /// straddles the swap cannot re-populate entries the registry just
  /// evicted for this generation's CRC.
  void Retire() { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }

 private:
  /// Cache key of the detection bundle a request needs: snapshot CRC
  /// plus the deterministic (structural) budget fields.
  std::string BundleKey(const RunBudget& budget) const;

  /// Per-request budget: the service default with any field the
  /// request set explicitly overridden.
  RunBudget EffectiveBudget(const Request& request) const;

  /// Get-or-compute the bundle for `budget`, single-flighted:
  /// concurrent misses on the same key share one computation (the
  /// first becomes the leader, the rest wait on its flight) instead of
  /// each running a full detection. Deadline-truncated runs are
  /// returned but not cached (their content is timing-dependent).
  Result<std::shared_ptr<const DetectionBundle>> GetBundle(
      const RunBudget& budget, RequestTelemetry* telemetry);

  /// One in-progress bundle computation; followers block on `cv` until
  /// the leader publishes `done`.
  struct BundleFlight;

  /// The company node labeled `label` (the batch CLI's errors: NotFound
  /// for an unknown label, InvalidArgument for a person).
  Result<NodeId> FindCompany(const std::string& label) const;

  Response HandleGroups(const Request& request, RequestTelemetry* telemetry);
  Response HandleExplain(const Request& request, RequestTelemetry* telemetry);
  Response HandleRescore(const Request& request, RequestTelemetry* telemetry);

  const Tpiin& net_;
  const uint32_t snapshot_crc_;
  const ServiceOptions options_;
  /// Private substrate of the standalone constructor; null when the
  /// caller supplied a registry-owned ServeSharedState.
  std::unique_ptr<ServeSharedState> owned_state_;
  ServeSharedState* shared_;
  std::atomic<bool> retired_{false};
  /// In-progress bundle computations, keyed like the bundle cache. Guarded
  /// by flight_mu_; entries live only while a leader is computing.
  std::mutex flight_mu_;
  std::unordered_map<std::string, std::shared_ptr<BundleFlight>>
      bundle_flights_;
  /// Label -> node id of its first occurrence (the batch CLI's linear
  /// "first match wins" scan, precomputed once).
  std::unordered_map<std::string, NodeId> node_by_label_;
};

/// True when any subTPIIN was skipped or truncated by wall time (as
/// opposed to a deterministic structural cap): such results must not be
/// cached. Exposed for tests.
bool TimeDegraded(const DetectionResult& detection);

}  // namespace tpiin

#endif  // TPIIN_SERVE_SERVICE_H_
