#ifndef TPIIN_OBS_TRACE_H_
#define TPIIN_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

/// Compile-time observability gate. Building with
/// -DTPIIN_OBS_ENABLED=0 compiles every TPIIN_SPAN / TPIIN_COUNTER_*
/// site down to nothing; the default build keeps them in, guarded by a
/// single relaxed atomic load per site (nullptr recorder / registered
/// handle), so a process without a recorder pays no measurable cost.
#ifndef TPIIN_OBS_ENABLED
#define TPIIN_OBS_ENABLED 1
#endif

namespace tpiin {

/// CPU time consumed by the calling thread, in seconds (0 where the
/// platform offers no thread clock).
double ThreadCpuSeconds();

/// CPU time consumed by the whole process (all threads), in seconds.
/// A stage span samples it at open and close, so a report shows
/// aggregate CPU next to wall time.
double ProcessCpuSeconds();

/// Writes `data` to `path` via `<path>.tmp.<pid>` + rename(2), so no
/// reader sees a torn file; false on I/O failure. obs sits below common
/// in the link graph, so this stands in for AtomicFile.
bool WriteWholeFileAtomic(const std::string& path, std::string_view data);

/// Collects nested start/duration span events from any number of
/// threads into per-thread buffers and merges them into a
/// Chrome-trace_event-format JSON that opens directly in
/// chrome://tracing or Perfetto.
///
/// Usage: construct, Install(), run the pipeline, Uninstall(), then
/// WriteChromeTrace(). While installed, every TPIIN_SPAN and stage span
/// in the process records into this recorder. Recording is lock-free
/// after a thread's first span (one vector push_back per span);
/// Install/Uninstall and the merge accessors take a mutex and must not
/// run concurrently with
/// active spans — uninstall after the instrumented calls return, which
/// the blocking pipeline entry points guarantee.
///
/// Tracing never changes pipeline results: spans only read the clock
/// and append to buffers, so detector/fusion output is bit-identical
/// with tracing on or off at any thread count
/// (tests/obs/obs_determinism_test.cc).
class TraceRecorder {
 public:
  /// One completed span. `name` must point to static-storage strings
  /// (the TPIIN_SPAN contract); timestamps are microseconds relative to
  /// the recorder's construction.
  struct SpanEvent {
    const char* name = nullptr;
    int64_t ts_us = 0;
    int64_t dur_us = 0;
    uint32_t tid = 0;  // Dense per-recorder thread index.
    uint32_t seq = 0;  // Start order within the thread (see BeginSpan).
    bool stage = false;          // The fields below: stage spans only.
    uint32_t stage_depth = 0;    // Stages already open on the thread.
    double seconds = 0;          // Wall, at the clock's own resolution.
    double cpu_seconds = 0;      // Process CPU across the stage.
    int64_t peak_rss_bytes = 0;  // Process peak RSS at close.
  };

  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this recorder the process-wide span sink and the calling
  /// thread its installing thread ("main" in the trace; see StageRows).
  /// The recorder must outlive every span started while it is installed.
  void Install();

  /// Clears the process-wide recorder (spans become no-ops again).
  static void Uninstall();

  /// The installed recorder, or nullptr when tracing is disabled. One
  /// relaxed atomic load; this is the span fast path.
  static TraceRecorder* Current() {
    return current_.load(std::memory_order_relaxed);
  }

  /// Microseconds from recorder construction to `t` (steady clock).
  int64_t MicrosAt(std::chrono::steady_clock::time_point t) const;

  /// Seconds since recorder construction.
  double ElapsedSeconds() const;

  /// Allocates the calling thread's next span start index. TraceSpan
  /// calls this at construction, so the indices order same-thread spans
  /// by program order (parent before child, siblings in start order)
  /// even when their microsecond timestamps tie — destruction order
  /// cannot distinguish those two cases. A stage passes `stage_depth`
  /// to get the number of stages open on its thread; it is open itself
  /// until recorded.
  uint32_t BeginSpan(uint32_t* stage_depth = nullptr);

  /// Appends a completed span (tid set here) to the thread's buffer.
  void RecordSpan(SpanEvent event);

  /// Spans recorded so far, across all threads.
  size_t NumEvents() const;

  /// All events merged and sorted by (ts, tid, start order), so a
  /// parent span always precedes its children and same-thread order is
  /// reproducible run to run regardless of clock resolution.
  std::vector<SpanEvent> MergedEvents() const;

  /// The stage rows of a run report: the outermost stage events recorded
  /// on the installing thread, in start order.
  std::vector<SpanEvent> StageRows() const;

  /// Chrome trace_event JSON ("traceEvents" array of "X" complete
  /// events plus thread-name metadata).
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::thread::id owner;
    uint32_t tid = 0;
    uint32_t next_seq = 0;     // Next BeginSpan start index.
    uint32_t open_stages = 0;  // Stage spans open on the thread.
    std::vector<SpanEvent> events;
  };

  ThreadBuffer* LocalBuffer();

  static std::atomic<TraceRecorder*> current_;

  const uint64_t id_;  // Process-unique, for thread-local cache checks.
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  uint32_t installer_tid_ = UINT32_MAX;  // Set by Install().
};

/// Selects TraceSpan's stage form: `TraceSpan stage("mine", kStage);`.
struct StageTag {};
inline constexpr StageTag kStage{};

/// RAII span: records [construction, destruction) into the installed
/// TraceRecorder, or does nothing when none is installed. `name` must
/// have static storage duration (string literals).
///
/// The stage form, `TraceSpan(name, kStage)`, is the one stage timer:
/// it always reads the wall clock, so Stop() returns its seconds with or
/// without a recorder. While one is installed it also records the
/// process CPU seconds across the stage, the peak RSS at close, and how
/// many stages were already open on its thread (see StageRows).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : recorder_(TraceRecorder::Current()) {
    event_.name = name;
    if (recorder_ != nullptr) {
      event_.ts_us = recorder_->MicrosAt(std::chrono::steady_clock::now());
      event_.seq = recorder_->BeginSpan();
    }
  }

  TraceSpan(const char* name, StageTag);

  ~TraceSpan() {
    if (event_.stage) {
      Stop();
    } else if (recorder_ != nullptr) {
      event_.dur_us =
          recorder_->MicrosAt(std::chrono::steady_clock::now()) - event_.ts_us;
      recorder_->RecordSpan(event_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Stage form: closes the stage now instead of at scope exit and
  /// returns its wall seconds; later calls return the same figure. A
  /// plain span returns 0 and still closes at scope exit.
  double Stop();

 private:
  TraceRecorder* recorder_;
  TraceRecorder::SpanEvent event_;
  bool stopped_ = false;  // This and below: stage form only.
  double cpu_start_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tpiin

#define TPIIN_OBS_CONCAT_INNER(a, b) a##b
#define TPIIN_OBS_CONCAT(a, b) TPIIN_OBS_CONCAT_INNER(a, b)

#if TPIIN_OBS_ENABLED
/// Opens a trace span covering the rest of the enclosing scope, e.g.
/// `TPIIN_SPAN("scc_contract");`. Free when no recorder is installed.
#define TPIIN_SPAN(name) \
  ::tpiin::TraceSpan TPIIN_OBS_CONCAT(tpiin_span_, __COUNTER__)(name)
#else
#define TPIIN_SPAN(name) ((void)0)
#endif

#endif  // TPIIN_OBS_TRACE_H_
