#ifndef TPIIN_OBS_RSS_H_
#define TPIIN_OBS_RSS_H_

#include <cstdint>

namespace tpiin {

/// High-water resident set size of this process in bytes (VmHWM from
/// /proc/self/status on Linux, getrusage ru_maxrss elsewhere). Monotone over the process lifetime — it never decreases
/// even after memory is released — so out-of-core claims must be
/// measured in a fresh process per configuration. Returns 0 when the
/// platform cannot report it. Never below an earlier PeakRssBytes or
/// CurrentRssBytes result of this process (the kernel's counters are
/// approximate; every sample is folded into one running max).
int64_t PeakRssBytes();

/// Instantaneous resident set size in bytes (/proc/self/statm).
/// Returns 0 on platforms without procfs.
int64_t CurrentRssBytes();

/// Samples both sizes into the global MetricsRegistry:
/// `process.peak_rss_bytes` (a running-max gauge) and
/// `process.current_rss_bytes`. Every stage span samples it at close
/// while a recorder is installed, so memory-boundedness is observable
/// in every run report, not just claimed. Returns the peak in bytes.
int64_t SampleRssGauges();

}  // namespace tpiin

#endif  // TPIIN_OBS_RSS_H_
