// Span recorder for the benchmark's traced runs. Spans are recorded only
// here, around the benchmark's own calls into each layer's public
// functions; the program under test is not instrumented. Spans stay in
// memory and are written as Chrome trace_event JSON when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  struct Record {
    std::string layer;  // io, fusion, snapshot, core, serve, shard, bench
    std::string name;
    int64_t parent = -1;  // Index into records(); -1 = a root span.
    double start_us = 0;
    double dur_us = 0;
  };

  // RAII span: opens on construction, closes on Stop() or destruction.
  // Spans nest by lexical scope; the tracer is used from one thread.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, std::string name);
    ~Span() { Stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    // Closes the span and returns its duration in seconds. The clock is
    // read whether or not the tracer records, so untraced runs time the
    // same calls with the same code.
    double Stop();

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    Clock::time_point start_;
    double seconds_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<Record>& records() const { return records_; }

  // Self time per layer in seconds: each span's duration minus the part
  // of it its child spans cover, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  // Chrome trace_event JSON ("X" complete events; parent ids in args).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int64_t> open_;  // Stack of open span indices.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
