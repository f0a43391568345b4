// Shared observability flags for the printf-style bench binaries:
//   --json=PATH       measurements as a JSON array of
//                     {"bench", "case", "seconds", "throughput"} records
//   --report=PATH     a RunReport (measurement table + run-wide metrics
//                     snapshot), diffable by tools/bench_compare
//   --trace-out=PATH  Chrome trace_event JSON of the run's spans
// so sweeps can be archived and diffed by tooling without scraping
// stdout.

#ifndef TPIIN_BENCH_BENCH_JSON_H_
#define TPIIN_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace tpiin {

class BenchJsonWriter {
 public:
  /// Scans argv for `--json <path>` / `--json=<path>` (and the
  /// `--report` / `--trace-out` run-report flags, same two spellings).
  /// Absent flags mean a disabled writer (Record/Flush are no-ops).
  /// When --report is given the run-wide metrics registry is reset so
  /// the snapshot covers exactly this run; when --trace-out is given a
  /// TraceRecorder is installed until Flush().
  static BenchJsonWriter FromArgs(int argc, char** argv) {
    BenchJsonWriter writer;
    if (argc > 0) {
      std::string tool = argv[0];
      size_t slash = tool.find_last_of('/');
      writer.tool_ =
          slash == std::string::npos ? tool : tool.substr(slash + 1);
    }
    auto flag_value = [&](int* i, const char* eq_prefix,
                          const char* name, std::string* out) {
      std::string arg = argv[*i];
      if (arg.rfind(eq_prefix, 0) == 0) {
        *out = arg.substr(std::string(eq_prefix).size());
        return true;
      }
      if (arg == name) {
        if (*i + 1 < argc) {
          *out = argv[++*i];
        } else {
          TPIIN_LOG(Error) << name << " requires a path; ignoring";
        }
        return true;
      }
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      if (flag_value(&i, "--json=", "--json", &writer.path_)) continue;
      if (flag_value(&i, "--report=", "--report", &writer.report_path_)) {
        continue;
      }
      flag_value(&i, "--trace-out=", "--trace-out", &writer.trace_path_);
    }
    if (!writer.report_path_.empty()) MetricsRegistry::Global().Reset();
    if (!writer.trace_path_.empty()) {
      // The recorder object is heap-owned, so moving the writer out of
      // this factory does not move the installed recorder.
      writer.recorder_ = std::make_unique<TraceRecorder>();
      writer.recorder_->Install();
    }
    return writer;
  }

  bool enabled() const { return !path_.empty(); }

  /// Records one measurement. `throughput` is benchmark-defined
  /// (items/s, arcs/s, ...); pass 0 when meaningless.
  void Record(const std::string& bench, const std::string& case_name,
              double seconds, double throughput = 0) {
    if (!report_path_.empty()) {
      rows_.push_back(Measurement{bench, case_name, seconds, throughput});
    }
    if (!enabled()) return;
    records_.push_back(StringPrintf(
        "  {\"bench\": \"%s\", \"case\": \"%s\", \"seconds\": %.9g, "
        "\"throughput\": %.9g}",
        JsonEscape(bench).c_str(), JsonEscape(case_name).c_str(), seconds,
        throughput));
  }

  /// Writes every requested artifact (JSON array, run report, trace).
  /// Returns false (with a log line) on any I/O failure; callers treat
  /// the artifacts as best-effort.
  bool Flush() {
    bool ok = true;
    if (enabled()) {
      std::FILE* f = std::fopen(path_.c_str(), "w");
      if (f == nullptr) {
        TPIIN_LOG(Error) << "cannot write " << path_;
        ok = false;
      } else {
        std::fputs("[\n", f);
        for (size_t i = 0; i < records_.size(); ++i) {
          std::fputs(records_[i].c_str(), f);
          std::fputs(i + 1 < records_.size() ? ",\n" : "\n", f);
        }
        std::fputs("]\n", f);
        std::fclose(f);
        std::printf("wrote %zu JSON records to %s\n", records_.size(),
                    path_.c_str());
      }
    }
    if (recorder_ != nullptr) {
      TraceRecorder::Uninstall();
      if (recorder_->WriteChromeTrace(trace_path_)) {
        std::printf("wrote %zu trace events to %s\n",
                    recorder_->NumEvents(), trace_path_.c_str());
      } else {
        TPIIN_LOG(Error) << "cannot write " << trace_path_;
        ok = false;
      }
      recorder_.reset();
    }
    if (!report_path_.empty()) {
      RunReport report(tool_);
      double total = 0;
      ReportTable& table = report.AddTable(
          "measurements", {"bench", "case", "seconds", "throughput"});
      for (const Measurement& m : rows_) {
        total += m.seconds;
        table.AddRow()
            .Append(m.bench)
            .Append(m.case_name)
            .Append(m.seconds)
            .Append(m.throughput);
      }
      report.set_total_seconds(total);
      report.AttachMetrics(MetricsRegistry::Global().Snapshot());
      if (report.WriteJson(report_path_)) {
        std::printf("wrote run report to %s\n", report_path_.c_str());
      } else {
        TPIIN_LOG(Error) << "cannot write " << report_path_;
        ok = false;
      }
    }
    return ok;
  }

 private:
  struct Measurement {
    std::string bench;
    std::string case_name;
    double seconds = 0;
    double throughput = 0;
  };

  std::string path_;
  std::string report_path_;
  std::string trace_path_;
  std::string tool_ = "bench";
  std::unique_ptr<TraceRecorder> recorder_;
  std::vector<std::string> records_;
  std::vector<Measurement> rows_;
};

/// Scans argv for `--threads N` / `--threads=N`. Returns
/// `default_threads` when absent. 0 means auto-detect (resolved by the
/// consumer via ResolveThreadCount). Harnesses that parallelize across
/// measurement rows default to 1 so timings stay uncontended unless the
/// user opts in.
inline uint32_t ParseThreadsFlag(int argc, char** argv,
                                 uint32_t default_threads = 1) {
  uint32_t threads = default_threads;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(10);
    } else if (arg == "--threads" && i + 1 < argc) {
      value = argv[++i];
    } else {
      continue;
    }
    char* end = nullptr;
    unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      TPIIN_LOG(Error) << "--threads wants a number, got '" << value
                       << "'; ignoring";
      continue;
    }
    threads = static_cast<uint32_t>(parsed);
  }
  return threads;
}

}  // namespace tpiin

#endif  // TPIIN_BENCH_BENCH_JSON_H_
