// Compares two bench --json artifacts (or two RunReport artifacts) and
// fails on regressions.
//
// Usage:
//   bench_compare BASELINE.json CURRENT.json
//       [--metric=seconds|throughput] [--threshold=0.10]
//       [--bench=NAME] [--case=SUBSTR]
//
// Record mode (the default for flat arrays written by BenchJsonWriter):
//   [{"bench": ..., "case": ..., "seconds": ..., "throughput": ...}, ...]
// Records are matched by (bench, case). For `seconds` a regression is
// the current value exceeding baseline * (1 + threshold); for
// `throughput` it is falling below baseline * (1 - threshold). Records
// whose baseline value is zero are skipped (sentinel rows that carry a
// count in the other field). --bench / --case restrict the comparison.
//
// Report mode (auto-detected when both inputs are RunReport JSONs, i.e.
// objects with a top-level "tool" key — written by `tpiin fuse/detect
// --report=` and the bench harnesses' --report flag): stage wall
// seconds are matched by stage name and compared under the same
// threshold rule (plus the report's total_seconds), and every metric
// present in both snapshots is printed as a delta line
// (`metric <name>: <base> -> <cur> (delta)`). Metric deltas are
// informational; only stage/total timings drive the exit code.
//
// Exit codes: 0 = no regression, 1 = at least one regression,
// 2 = usage or I/O error. Documented in EXPERIMENTS.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Record {
  std::string bench;
  std::string case_name;
  double seconds = 0;
  double throughput = 0;
};

// Minimal scanner for the writer's flat format: finds each "key":
// occurrence and reads the quoted-string or number value after it. Not a
// general JSON parser, but the producer is ours and the format is fixed.
bool ParseRecords(const std::string& path, std::vector<Record>* out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto read_string = [&](size_t pos, std::string* value) -> bool {
    pos = text.find('"', pos);
    if (pos == std::string::npos) return false;
    std::string result;
    for (size_t i = pos + 1; i < text.size(); ++i) {
      if (text[i] == '\\' && i + 1 < text.size()) {
        result += text[++i];
      } else if (text[i] == '"') {
        *value = std::move(result);
        return true;
      } else {
        result += text[i];
      }
    }
    return false;
  };

  size_t pos = 0;
  while ((pos = text.find("{", pos)) != std::string::npos) {
    size_t end = text.find("}", pos);
    if (end == std::string::npos) break;
    Record record;
    bool ok = true;
    auto field = [&](const char* key, auto reader) {
      size_t at = text.find(std::string("\"") + key + "\":", pos);
      if (at == std::string::npos || at > end) {
        ok = false;
        return;
      }
      reader(at + std::strlen(key) + 3);
    };
    field("bench", [&](size_t at) {
      ok = ok && read_string(at, &record.bench);
    });
    field("case", [&](size_t at) {
      ok = ok && read_string(at, &record.case_name);
    });
    field("seconds", [&](size_t at) {
      record.seconds = std::strtod(text.c_str() + at, nullptr);
    });
    field("throughput", [&](size_t at) {
      record.throughput = std::strtod(text.c_str() + at, nullptr);
    });
    if (!ok) {
      std::fprintf(stderr, "bench_compare: malformed record in %s\n",
                   path.c_str());
      return false;
    }
    out->push_back(std::move(record));
    pos = end + 1;
  }
  return true;
}

// One parsed RunReport: stage timings plus a flattened metric map
// (counter/gauge -> value, histogram -> count).
struct ReportData {
  double total_seconds = 0;
  std::vector<std::pair<std::string, double>> stages;
  std::map<std::string, double> metrics;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// A RunReport is a JSON object whose first key is "tool"; the record
// arrays never contain that key.
bool LooksLikeReport(const std::string& text) {
  return text.find("\"tool\":") != std::string::npos;
}

// Minimal scanner in the spirit of ParseRecords: the producer is
// obs/report.cc, so the key order and nesting are fixed.
bool ParseReport(const std::string& path, ReportData* out) {
  std::string text;
  if (!ReadFile(path, &text)) return false;

  size_t at = text.find("\"total_seconds\":");
  if (at != std::string::npos) {
    out->total_seconds =
        std::strtod(text.c_str() + at + std::strlen("\"total_seconds\":"),
                    nullptr);
  }

  // Stages: {"name": "...", "seconds": N, ...} objects inside the
  // "stages" array (which ends at the first ']').
  size_t stages_at = text.find("\"stages\": [");
  if (stages_at != std::string::npos) {
    size_t stages_end = text.find(']', stages_at);
    size_t pos = stages_at;
    while (true) {
      size_t name_at = text.find("\"name\": \"", pos);
      if (name_at == std::string::npos || name_at > stages_end) break;
      size_t name_start = name_at + std::strlen("\"name\": \"");
      size_t name_end = text.find('"', name_start);
      size_t secs_at = text.find("\"seconds\":", name_end);
      if (name_end == std::string::npos || secs_at == std::string::npos ||
          secs_at > stages_end) {
        break;
      }
      out->stages.emplace_back(
          text.substr(name_start, name_end - name_start),
          std::strtod(text.c_str() + secs_at + std::strlen("\"seconds\":"),
                      nullptr));
      pos = secs_at;
    }
  }

  // Metrics: "name": {"type": "kind", ...} pairs after the "metrics"
  // key. Counters and gauges compare on "value", histograms on "count".
  size_t metrics_at = text.find("\"metrics\":");
  if (metrics_at != std::string::npos) {
    size_t pos = metrics_at;
    while (true) {
      size_t type_at = text.find("{\"type\": \"", pos);
      if (type_at == std::string::npos) break;
      // The metric name is the quoted key right before this object.
      size_t colon = text.rfind(':', type_at);
      size_t name_end = text.rfind('"', colon);
      size_t name_start =
          name_end == std::string::npos ? std::string::npos
                                        : text.rfind('"', name_end - 1);
      size_t entry_end = text.find('}', type_at);
      if (name_start == std::string::npos ||
          entry_end == std::string::npos) {
        break;
      }
      const std::string name =
          text.substr(name_start + 1, name_end - name_start - 1);
      double value = 0;
      for (const char* key : {"\"value\":", "\"count\":"}) {
        size_t value_at = text.find(key, type_at);
        if (value_at != std::string::npos && value_at < entry_end) {
          value = std::strtod(text.c_str() + value_at + std::strlen(key),
                              nullptr);
          break;
        }
      }
      out->metrics[name] = value;
      pos = entry_end;
    }
  }
  return true;
}

int CompareReports(const std::string& baseline_path,
                   const std::string& current_path, double threshold) {
  ReportData baseline;
  ReportData current;
  if (!ParseReport(baseline_path, &baseline) ||
      !ParseReport(current_path, &current)) {
    return 2;
  }

  std::map<std::string, double> base_stages(baseline.stages.begin(),
                                            baseline.stages.end());
  size_t compared = 0;
  size_t regressions = 0;
  auto check = [&](const std::string& name, double base, double cur) {
    if (base <= 0) return;  // Too fast to attribute; nothing to compare.
    ++compared;
    double ratio = cur / base;
    if (ratio > 1.0 + threshold) {
      ++regressions;
      std::printf("REGRESSION stage %s: seconds %.6g -> %.6g (%+.1f%%)\n",
                  name.c_str(), base, cur, 100.0 * (ratio - 1.0));
    }
  };
  for (const auto& [name, seconds] : current.stages) {
    auto it = base_stages.find(name);
    if (it != base_stages.end()) check(name, it->second, seconds);
  }
  check("(total)", baseline.total_seconds, current.total_seconds);

  size_t metrics_diffed = 0;
  for (const auto& [name, cur] : current.metrics) {
    auto it = baseline.metrics.find(name);
    if (it == baseline.metrics.end()) continue;
    ++metrics_diffed;
    if (cur != it->second) {
      std::printf("metric %s: %.10g -> %.10g (%+.10g)\n", name.c_str(),
                  it->second, cur, cur - it->second);
    }
  }

  std::printf(
      "bench_compare: report mode, %zu stage(s) compared, threshold "
      "%.0f%%, %zu metric(s) diffed, %zu regression(s)\n",
      compared, 100.0 * threshold, metrics_diffed, regressions);
  return regressions > 0 ? 1 : 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare BASELINE.json CURRENT.json\n"
      "         [--metric=seconds|throughput] [--threshold=0.10]\n"
      "         [--bench=NAME] [--case=SUBSTR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string metric = "seconds";
  std::string bench_filter;
  std::string case_filter;
  double threshold = 0.10;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--metric=", 0) == 0) {
      metric = arg.substr(9);
    } else if (arg.rfind("--threshold=", 0) == 0) {
      // The whole value must be a number: "10%" is not silently read as
      // 10 (a 1000% gate).
      const char* begin = arg.c_str() + 12;
      char* end = nullptr;
      threshold = std::strtod(begin, &end);
      if (end == begin || *end != '\0' || !std::isfinite(threshold)) {
        return Usage();
      }
    } else if (arg.rfind("--bench=", 0) == 0) {
      bench_filter = arg.substr(8);
    } else if (arg.rfind("--case=", 0) == 0) {
      case_filter = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2 ||
      (metric != "seconds" && metric != "throughput") || threshold <= 0) {
    return Usage();
  }

  {
    std::string base_text;
    std::string cur_text;
    if (!ReadFile(paths[0], &base_text) || !ReadFile(paths[1], &cur_text)) {
      return 2;
    }
    const bool base_report = LooksLikeReport(base_text);
    const bool cur_report = LooksLikeReport(cur_text);
    if (base_report != cur_report) {
      std::fprintf(stderr,
                   "bench_compare: cannot mix a RunReport and a record "
                   "array\n");
      return 2;
    }
    if (base_report) return CompareReports(paths[0], paths[1], threshold);
  }

  std::vector<Record> baseline;
  std::vector<Record> current;
  if (!ParseRecords(paths[0], &baseline) ||
      !ParseRecords(paths[1], &current)) {
    return 2;
  }

  std::map<std::pair<std::string, std::string>, const Record*> by_key;
  for (const Record& record : baseline) {
    by_key[{record.bench, record.case_name}] = &record;
  }

  const bool lower_is_better = metric == "seconds";
  size_t compared = 0;
  size_t regressions = 0;
  for (const Record& record : current) {
    if (!bench_filter.empty() && record.bench != bench_filter) continue;
    if (!case_filter.empty() &&
        record.case_name.find(case_filter) == std::string::npos) {
      continue;
    }
    auto it = by_key.find({record.bench, record.case_name});
    if (it == by_key.end()) continue;  // New case; nothing to compare.
    double base = lower_is_better ? it->second->seconds
                                  : it->second->throughput;
    double cur = lower_is_better ? record.seconds : record.throughput;
    if (base <= 0) continue;  // Sentinel/count-only rows.
    ++compared;
    double ratio = cur / base;
    bool regressed = lower_is_better ? ratio > 1.0 + threshold
                                     : ratio < 1.0 - threshold;
    if (regressed) {
      ++regressions;
      std::printf("REGRESSION %s/%s: %s %.6g -> %.6g (%+.1f%%)\n",
                  record.bench.c_str(), record.case_name.c_str(),
                  metric.c_str(), base, cur, 100.0 * (ratio - 1.0));
    }
  }
  std::printf(
      "bench_compare: %zu case(s) compared on %s, threshold %.0f%%, "
      "%zu regression(s)\n",
      compared, metric.c_str(), 100.0 * threshold, regressions);
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_compare: no overlapping cases; check filters "
                 "and inputs\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
