#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "obs/rss.h"

namespace tpiin {

double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
#else
  return 0;
#endif
}

double ProcessCpuSeconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
#else
  return 0;
#endif
}

bool WriteWholeFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::atomic<TraceRecorder*> TraceRecorder::current_{nullptr};

namespace {

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread cache of the buffer registered with the current recorder,
// keyed by the recorder's process-unique id so a stale cache from a
// destroyed recorder can never be mistaken for a live one.
struct TlsBufferCache {
  uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local TlsBufferCache tls_buffer_cache;

}  // namespace

TraceRecorder::TraceRecorder()
    : id_(NextRecorderId()), epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Self-uninstall guards against a caller forgetting Uninstall();
  // spans racing this destructor are a caller bug either way.
  TraceRecorder* self = this;
  current_.compare_exchange_strong(self, nullptr,
                                   std::memory_order_relaxed);
}

void TraceRecorder::Install() {
  installer_tid_ = LocalBuffer()->tid;
  current_.store(this, std::memory_order_relaxed);
}

void TraceRecorder::Uninstall() {
  current_.store(nullptr, std::memory_order_relaxed);
}

int64_t TraceRecorder::MicrosAt(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
      .count();
}

double TraceRecorder::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

TraceRecorder::ThreadBuffer* TraceRecorder::LocalBuffer() {
  if (tls_buffer_cache.recorder_id == id_) {
    return static_cast<ThreadBuffer*>(tls_buffer_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A thread that alternated between recorders re-finds its original
  // buffer here instead of registering a duplicate tid.
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& existing : buffers_) {
    if (existing->owner == self) {
      tls_buffer_cache = {id_, existing.get()};
      return existing.get();
    }
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->owner = self;
  buffer->tid = static_cast<uint32_t>(buffers_.size());
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tls_buffer_cache = {id_, raw};
  return raw;
}

uint32_t TraceRecorder::BeginSpan(uint32_t* stage_depth) {
  ThreadBuffer* buffer = LocalBuffer();
  if (stage_depth != nullptr) *stage_depth = buffer->open_stages++;
  return buffer->next_seq++;
}

void TraceRecorder::RecordSpan(SpanEvent event) {
  ThreadBuffer* buffer = LocalBuffer();
  if (event.stage) --buffer->open_stages;
  event.tid = buffer->tid;
  buffer->events.push_back(event);
}

size_t TraceRecorder::NumEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  return total;
}

std::vector<TraceRecorder::SpanEvent> TraceRecorder::MergedEvents() const {
  std::vector<SpanEvent> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& buffer : buffers_) total += buffer->events.size();
    merged.reserve(total);
    for (const auto& buffer : buffers_) {
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  // Same-thread ties break on BeginSpan start order, which is program
  // order: a parent constructs before the children it started in the
  // same microsecond, and an earlier sibling constructs before a later
  // one. (Duration or destruction order cannot tell those two cases
  // apart, which made merge order flap with clock resolution.)
  std::sort(merged.begin(), merged.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  return merged;
}

std::vector<TraceRecorder::SpanEvent> TraceRecorder::StageRows() const {
  std::vector<SpanEvent> rows;
  std::lock_guard<std::mutex> lock(mu_);
  if (installer_tid_ >= buffers_.size()) return rows;
  // Outermost stages of one thread never overlap, so their close order
  // (the buffer's) is their start order.
  for (const SpanEvent& event : buffers_[installer_tid_]->events) {
    if (event.stage && event.stage_depth == 0) rows.push_back(event);
  }
  return rows;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  const std::vector<SpanEvent> events = MergedEvents();
  uint32_t max_tid = 0;
  for (const SpanEvent& event : events) {
    max_tid = std::max(max_tid, event.tid);
  }

  std::string out = "{\"traceEvents\":[\n";
  char line[256];
  // Thread-name metadata rows: "main" is the installing thread, which
  // need not be the first to record (serve's connection threads are).
  const uint32_t num_tids = events.empty() ? 0 : max_tid + 1;
  for (uint32_t tid = 0; tid < num_tids; ++tid) {
    std::snprintf(line, sizeof(line),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"%s%u\"}},\n",
                  tid, tid == installer_tid_ ? "main" : "worker", tid);
    out += line;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& event = events[i];
    std::snprintf(line, sizeof(line),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%lld,"
                  "\"dur\":%lld,\"name\":\"%s\",\"cat\":\"tpiin\"}%s\n",
                  event.tid, static_cast<long long>(event.ts_us),
                  static_cast<long long>(event.dur_us), event.name,
                  i + 1 < events.size() ? "," : "");
    out += line;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteWholeFileAtomic(path, ToChromeTraceJson());
}

TraceSpan::TraceSpan(const char* name, StageTag)
    : recorder_(TraceRecorder::Current()),
      start_(std::chrono::steady_clock::now()) {
  event_.name = name;
  event_.stage = true;
  if (recorder_ != nullptr) {
    event_.seq = recorder_->BeginSpan(&event_.stage_depth);
    cpu_start_ = ProcessCpuSeconds();
  }
}

double TraceSpan::Stop() {
  if (!event_.stage || stopped_) return event_.seconds;
  stopped_ = true;
  if (recorder_ != nullptr) {
    // Sampled before the closing clock read, so their cost stays inside
    // the stage instead of falling between two stage rows.
    event_.peak_rss_bytes = SampleRssGauges();
    event_.cpu_seconds = ProcessCpuSeconds() - cpu_start_;
  }
  const auto end = std::chrono::steady_clock::now();
  event_.seconds = std::chrono::duration<double>(end - start_).count();
  if (recorder_ != nullptr) {
    event_.ts_us = recorder_->MicrosAt(start_);
    event_.dur_us = recorder_->MicrosAt(end) - event_.ts_us;
    recorder_->RecordSpan(event_);
  }
  return event_.seconds;
}

}  // namespace tpiin
