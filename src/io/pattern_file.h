#ifndef TPIIN_IO_PATTERN_FILE_H_
#define TPIIN_IO_PATTERN_FILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/component_pattern.h"
#include "core/detector.h"
#include "core/matcher.h"
#include "core/subtpiin.h"

namespace tpiin {

/// Writes one subTPIIN's potential component patterns base as the paper's
/// numbered-trail file patterns(i) (Fig. 10 layout).
Status WritePatternBaseFile(const std::string& path, const SubTpiin& sub,
                            const PatternBase& base);

/// Renders detected suspicious groups in the paper's susGroup(i)
/// layout: one AppendGroupLine line per group, in detection order. The
/// batch file writer below streams exactly these bytes, and the serve
/// layer's `groups` verb returns them, so the two are diffable byte for
/// byte. Groups are rendered in bounded batches on up to `num_threads`
/// threads (0 = auto-detect); the output is the same at any count.
std::string RenderSuspiciousGroups(const Tpiin& net,
                                   const std::vector<SuspiciousGroup>& groups,
                                   uint32_t num_threads = 0);

/// Streams the RenderSuspiciousGroups bytes to the susGroup(i) file one
/// batch at a time: memory is bounded by the batch, not the group count.
Status WriteSuspiciousGroupsFile(const std::string& path, const Tpiin& net,
                                 const std::vector<SuspiciousGroup>& groups,
                                 uint32_t num_threads = 0);

/// Writes suspicious trading relationships as susTrade(i): one
/// "seller -> buyer" pair per line.
Status WriteSuspiciousTradesFile(
    const std::string& path, const Tpiin& net,
    const std::vector<std::pair<NodeId, NodeId>>& trades);

/// Full detection report (summary + trades + groups) in one text file;
/// the group section is susGroup(i) with every line indented by two
/// spaces, streamed like WriteSuspiciousGroupsFile.
Status WriteDetectionReport(const std::string& path, const Tpiin& net,
                            const DetectionResult& result,
                            uint32_t num_threads = 0);

}  // namespace tpiin

#endif  // TPIIN_IO_PATTERN_FILE_H_
