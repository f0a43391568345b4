#ifndef TPIIN_SERVE_SERVER_H_
#define TPIIN_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/slow_ring.h"
#include "snapshot/snapshot.h"

namespace tpiin {

/// Configuration of the `tpiin serve` daemon (transport half; the query
/// engine's knobs live in ServiceOptions).
struct ServeOptions {
  std::string snapshot_path;

  /// Loopback by default: the daemon trusts its callers (auditors on
  /// the same host or behind a local proxy); exposing it wider is an
  /// explicit decision.
  std::string host = "127.0.0.1";

  /// 0 = pick an ephemeral port (read it back from Server::port()).
  uint16_t port = 0;

  /// Requests executing concurrently; connections beyond
  /// max_inflight + max_queue are answered `busy` at accept.
  size_t max_inflight = 4;
  size_t max_queue = 16;

  /// Per-connection blocking-read timeout: an idle connection is closed
  /// after this long, so parked clients cannot hold admission slots
  /// (and their I/O threads) forever.
  double idle_timeout_seconds = 30;

  /// Slow-loris guard: once the first byte of a request line arrives,
  /// the full line must follow within this budget or the request is
  /// answered `error` and the connection closed. Without it, a client
  /// trickling one byte per idle_timeout could pin a connection thread
  /// indefinitely while never completing a request. 0 disables.
  double line_deadline_seconds = 10;

  /// Per-connection blocking-send timeout (SO_SNDTIMEO): a client that
  /// stops draining its socket stalls the response write for at most
  /// this long before the connection is declared dead. 0 disables.
  double write_deadline_seconds = 30;

  /// Graceful-drain budget after shutdown is requested: in-flight
  /// requests get this long to finish and answer before the forced
  /// phase severs their sockets.
  double drain_seconds = 10;

  /// Longest accepted request line; longer input is answered `error`
  /// and the connection is closed (it is mid-line, unrecoverable).
  size_t max_line_bytes = 1 << 20;

  bool verify_checksums = true;

  /// NDJSON access log: one event per answered request (plus one per
  /// busy-at-accept refusal). Empty = off, "-" = stderr.
  std::string access_log_path;

  /// Chrome trace of live traffic: the server installs a TraceRecorder
  /// for its lifetime and writes the merged trace here on Wait().
  /// Empty = tracing off.
  std::string trace_out_path;

  /// Periodic Prometheus text snapshot, written atomically every
  /// metrics_interval_seconds (and once more at shutdown). Empty = off.
  std::string metrics_out_path;
  double metrics_interval_seconds = 5;

  /// Slow-request ring capacity (the `slow` verb's window); 0 disables
  /// capture.
  size_t slow_requests = 8;

  ServiceOptions service;
};

/// Lifetime totals, returned by Wait() and rendered by the stats verb.
struct ServeSummary {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< Busy at accept.
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t busy = 0;   ///< Busy responses (accept-refusals + slot waits).
  uint64_t errors = 0;
  uint64_t read_errors = 0;   ///< Malformed lines, injected read faults.
  uint64_t write_errors = 0;  ///< Response writes lost to a dead client.

  /// The serve exit-code contract, aligned with PR 4's: 0 = clean
  /// shutdown and every answered request was complete; 2 = clean
  /// shutdown but some responses were degraded (partial results were
  /// served). Startup failures never get here — Server::Start returns
  /// the error and the CLI exits 1.
  int ExitCode() const { return degraded > 0 ? 2 : 0; }
};

/// The `tpiin serve` daemon: opens a snapshot (generation 1 of its
/// SnapshotRegistry), then answers newline-delimited JSON queries
/// (serve/protocol.h) over TCP until shut down. SIGHUP or the `reload`
/// verb hot-swaps to a re-validated snapshot with zero downtime:
/// in-flight requests finish on the generation they started with, new
/// requests see the new one, and a candidate that fails validation is
/// rejected with the old generation still serving.
///
/// Threading: Start() binds, listens and spawns one acceptor thread.
/// Each accepted connection gets a dedicated I/O thread (bounded by the
/// admission cap, so at most max_inflight + max_queue exist) that reads
/// request lines, acquires an admission slot per request, evaluates it
/// against the QueryService and writes the response line. Connections
/// deliberately do NOT run on the global ThreadPool: a connection
/// parked in recv would pin a pool worker, and on small machines a few
/// idle clients could starve every other connection. The pool stays
/// reserved for CPU work (detection's ParallelFor fans out onto it
/// from inside a request). SIGINT/SIGTERM (wired by the CLI through
/// RequestShutdownFromSignal) or Shutdown() stop the acceptor, sever
/// idle reads, let in-flight requests finish (drain_seconds), then
/// force-close stragglers; Wait() blocks until that completes.
class Server {
 public:
  /// Opens the snapshot, binds and starts accepting. Any failure —
  /// bad snapshot, unparsable host, bind/listen error — is returned
  /// here (the CLI's "startup failure, exit 1" class).
  static Result<std::unique_ptr<Server>> Start(const ServeOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves option port 0 to the kernel's pick).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// The serving generation right now. A caller that needs the network
  /// or CRC must hold the returned shared_ptr across its use — a
  /// hot-reload may retire this generation at any moment, and the
  /// shared_ptr is what keeps the mmap alive.
  std::shared_ptr<const SnapshotGeneration> CurrentGeneration() const {
    return registry_->Current();
  }

  /// Reload surface for tests and embedders; the daemon reaches it via
  /// SIGHUP or the `reload` verb. Same contract as
  /// SnapshotRegistry::Reload: validate-then-swap, old generation keeps
  /// serving on failure.
  Result<ReloadOutcome> Reload(const std::string& path_override = "") {
    return registry_->Reload(path_override);
  }
  const SnapshotRegistry& registry() const { return *registry_; }

  /// Initiates shutdown (idempotent, callable from any thread) and
  /// returns immediately; Wait() observes the drain.
  void Shutdown();

  /// Blocks until the server has fully drained, then returns the
  /// lifetime summary. Call at most once.
  ServeSummary Wait();

  /// Point-in-time summary (the stats verb; also readable after Wait).
  ServeSummary Summary() const;

  /// The stats verb's payload: a RunReport-style JSON document with
  /// server/request/cache sections, a latency percentile table (one row
  /// per verb bucket that has seen a request) and the raw metric
  /// histograms.
  RunReport BuildStatsReport() const;

  /// The metrics verb's payload and the --metrics-out snapshot body:
  /// the per-server registry plus synthesized uptime / RSS / connection
  /// families, rendered in the Prometheus text format.
  std::string BuildMetricsText() const;

  /// The slow verb's payload: the slow-request ring as a JSON document,
  /// slowest first.
  std::string BuildSlowPayload() const;

  /// The access-log sink, for tests (null when --access-log is unset).
  const JsonLogSink* access_log() const { return access_log_.get(); }

  /// Async-signal-safe shutdown kick: writes one byte to the running
  /// server's wake pipe. The CLI's SIGINT/SIGTERM handlers call this;
  /// a no-op when no server is running.
  static void RequestShutdownFromSignal();

  /// Async-signal-safe reload kick: writes the reload byte to the wake
  /// pipe; the acceptor hands it to the reload worker, which runs
  /// SnapshotRegistry::Reload off the signal path. The CLI's SIGHUP
  /// handler calls this; a no-op when no server is running.
  static void RequestReloadFromSignal();

 private:
  explicit Server(const ServeOptions& options);

  void AcceptLoop();
  /// `self` is this connection's handle in connection_threads_; the
  /// handler moves it to finished_threads_ on the way out so the
  /// acceptor can reap it. `conn_id` is the connection's 1-based accept
  /// serial — the "c" half of every request ID it will mint.
  void HandleConnection(int fd, uint64_t conn_id,
                        std::list<std::thread>::iterator self);
  /// Joins every thread parked in finished_threads_. Called by the
  /// acceptor on each accept and by Wait() after the drain, so a
  /// long-lived server never accumulates terminated joinable threads.
  void ReapFinishedConnections();
  /// Reads one '\n'-terminated line into `line`. Returns false on EOF,
  /// timeout, an expired line deadline, overlong input or error (the
  /// connection ends either way).
  bool ReadLine(int fd, std::string* buffer, std::string* line);
  /// Writes one framed wire line (head, shared body, tail) with one
  /// vectored sendmsg per step, resuming short writes mid-part.
  /// False = the connection is dead (client hung up or stalled past the
  /// write deadline); the caller should wind the connection down.
  bool WriteWire(int fd, const FramedResponse& wire);
  /// Answers a verb whose kServeVerbs side is kDaemon: it speaks about
  /// the daemon, its traffic or its generations, not the network. The
  /// payload is the Build*() text of stats, slow, metrics and healthz;
  /// reload answers the serving generation, path, CRC and `swapped`.
  Response AnswerDaemonVerb(VerbId verb, const Request& request);
  /// The healthz verb's payload: "ok", then the serving generation and
  /// the reload counters.
  std::string BuildHealthzPayload() const;
  void DrainConnections();
  /// Runs SnapshotRegistry::Reload whenever the acceptor forwards a
  /// SIGHUP reload byte; a dedicated thread, so a multi-second snapshot
  /// load never stalls accepts. Stopped by Wait().
  void ReloadWorkerLoop();
  void NotifyReloadWorker();
  /// The --metrics-out writer: wakes every metrics_interval_seconds,
  /// snapshots BuildMetricsText() and writes it atomically. Stopped by
  /// Wait() (which then writes one final snapshot).
  void MetricsWriterLoop();

  ServeOptions options_;
  AdmissionController admission_;
  /// Per-server registry: serve.* counters, gauges and latency
  /// histograms, snapshotted into the stats verb. Kept separate from
  /// MetricsRegistry::Global() so two servers in one process (tests)
  /// don't blend.
  MetricsRegistry metrics_;
  /// Access-log sink (--access-log); null when disabled. Request and
  /// reload events only — lifecycle messages go through TPIIN_LOG.
  std::unique_ptr<JsonLogSink> access_log_;
  /// Snapshot generations (declared after access_log_ — the registry
  /// holds the sink as its reload-event target, so it must be destroyed
  /// first).
  std::unique_ptr<SnapshotRegistry> registry_;
  /// Live-traffic trace recorder (--trace-out); installed process-wide
  /// for the server's lifetime, so per-request spans nest around the
  /// detection stages' own spans. Null when disabled.
  std::unique_ptr<TraceRecorder> trace_;
  SlowRequestRing slow_ring_;

  /// What one request is counted, timed and traced under: a table verb
  /// (index = VerbId), or one of two fixed catch-alls.
  struct VerbBucket {
    std::string_view name;  ///< Metric-family suffix.
    const char* span = nullptr;
    Counter* requests = nullptr;
    Histogram* latency_us = nullptr;
  };
  /// A parsed request whose verb is not in the table.
  static constexpr size_t kOtherBucket = kServeVerbs.size();
  /// A line that did not parse.
  static constexpr size_t kMalformedBucket = kServeVerbs.size() + 1;
  /// Filled once by the constructor; handles into metrics_.
  std::array<VerbBucket, kServeVerbs.size() + 2> buckets_;
  /// The per-request families every verb shares, also taken once by
  /// the constructor so the connection loop never looks a name up.
  Gauge* inflight_ = nullptr;
  Histogram* queue_us_ = nullptr;
  Histogram* write_us_ = nullptr;
  Histogram* total_us_ = nullptr;

  std::thread metrics_writer_;
  std::mutex metrics_writer_mu_;
  std::condition_variable metrics_writer_cv_;
  bool metrics_writer_stop_ = false;

  std::thread reload_worker_;
  std::mutex reload_worker_mu_;
  std::condition_variable reload_worker_cv_;
  bool reload_worker_stop_ = false;
  bool reload_pending_ = false;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::unordered_set<int> open_fds_;
  /// Live connection threads, one per accepted connection (bounded by
  /// the admission cap). A finished handler moves its own handle to
  /// finished_threads_, which the acceptor joins on the next accept —
  /// so unjoined-but-terminated threads are bounded too, instead of
  /// accumulating a stack per connection for the daemon's lifetime.
  std::list<std::thread> connection_threads_;
  std::vector<std::thread> finished_threads_;
  size_t active_connections_ = 0;
  bool accept_done_ = false;

  std::chrono::steady_clock::time_point started_at_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_refused_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> busy_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> read_errors_{0};
  std::atomic<uint64_t> write_errors_{0};
};

}  // namespace tpiin

#endif  // TPIIN_SERVE_SERVER_H_
