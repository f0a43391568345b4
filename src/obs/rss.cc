#include "obs/rss.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace tpiin {

namespace {

// Largest RSS this process has read. The kernel's RSS counters are
// per-CPU and approximate, so a later VmHWM (or ru_maxrss) read can
// come out a few pages *below* an earlier one, or below an earlier
// VmRSS/statm read. Folding every sample into one running max keeps
// the peak monotone and never below a current value already reported.
std::atomic<int64_t> g_peak_seen{0};

int64_t NotePeak(int64_t bytes) {
  int64_t seen = g_peak_seen.load(std::memory_order_relaxed);
  while (seen < bytes && !g_peak_seen.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
  return std::max(seen, bytes);
}

}  // namespace

int64_t PeakRssBytes() {
#if defined(__linux__)
  // VmHWM is taken at read time as max(high-water mark, current RSS),
  // so it is never below the VmRSS of the same read.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return NotePeak(static_cast<int64_t>(kib) * 1024);
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return NotePeak(static_cast<int64_t>(usage.ru_maxrss));  // Bytes.
#else
  return NotePeak(static_cast<int64_t>(usage.ru_maxrss) * 1024);  // KiB.
#endif
#else
  return 0;
#endif
}

int64_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long total_pages = 0;
  long long resident_pages = 0;
  const int parsed =
      std::fscanf(f, "%lld %lld", &total_pages, &resident_pages);
  std::fclose(f);
  if (parsed != 2) return 0;
  const int64_t current = static_cast<int64_t>(resident_pages) *
                          static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
  NotePeak(current);
  return current;
#else
  return 0;
#endif
}

int64_t SampleRssGauges() {
  const int64_t peak = PeakRssBytes();
  const int64_t current = CurrentRssBytes();
  TPIIN_GAUGE_MAX("process.peak_rss_bytes", peak);
  TPIIN_GAUGE_SET("process.current_rss_bytes", current);
  return peak;
}

}  // namespace tpiin
