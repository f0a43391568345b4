#include "io/pattern_file.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "common/atomic_file.h"
#include "common/thread_pool.h"

namespace tpiin {

namespace {

// Groups rendered per batch. The renderer holds one batch's text at a
// time (about 0.6 MB at ~145 bytes per line), whatever the group count.
constexpr size_t kRenderBatchGroups = 4096;

// Groups per chunk of a batch: one pool task and one reused buffer each.
constexpr size_t kRenderChunkGroups = 512;

// Renders `groups` in order as `prefix` + AppendGroupLine + "\n" per
// group, one batch at a time: each batch's chunks are rendered into
// reused buffers on the global pool (up to `num_threads` threads, 0 =
// auto-detect) and handed to `sink` in order.
template <typename Sink>
void RenderGroupBatches(const Tpiin& net,
                        const std::vector<SuspiciousGroup>& groups,
                        std::string_view prefix, uint32_t num_threads,
                        Sink&& sink) {
  std::array<std::string, kRenderBatchGroups / kRenderChunkGroups> chunks;
  const uint32_t threads = ResolveThreadCount(num_threads);
  for (size_t begin = 0; begin < groups.size(); begin += kRenderBatchGroups) {
    const size_t end = std::min(groups.size(), begin + kRenderBatchGroups);
    const size_t num_chunks =
        (end - begin + kRenderChunkGroups - 1) / kRenderChunkGroups;
    ThreadPool::Global().ParallelFor(num_chunks, threads, [&](size_t c) {
      // Appends go to a string on this thread's stack: the array's
      // string headers share cache lines, and appending through them
      // from several threads made the pool slower than one thread.
      std::string buffer = std::move(chunks[c]);
      buffer.clear();
      const size_t first = begin + c * kRenderChunkGroups;
      const size_t last = std::min(end, first + kRenderChunkGroups);
      for (size_t i = first; i < last; ++i) {
        AppendGroupLine(net, groups[i], prefix, &buffer);
        buffer.push_back('\n');
      }
      chunks[c] = std::move(buffer);
    });
    for (size_t c = 0; c < num_chunks; ++c) sink(chunks[c]);
  }
}

}  // namespace

// All four writers stream through AtomicFile: a crash or injected IO
// failure mid-write leaves the previous artifact (or nothing), never a
// torn one.

Status WritePatternBaseFile(const std::string& path, const SubTpiin& sub,
                            const PatternBase& base) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  file.stream() << FormatPatternBase(sub, base);
  return file.Commit();
}

std::string RenderSuspiciousGroups(const Tpiin& net,
                                   const std::vector<SuspiciousGroup>& groups,
                                   uint32_t num_threads) {
  std::string out;
  RenderGroupBatches(net, groups, {}, num_threads,
                     [&](const std::string& chunk) {
                       if (out.empty()) {
                         // Sized once from the first chunk, with a
                         // quarter to spare: growing a 100 MB string by
                         // doubling costs more than rendering it, and
                         // reserved pages never written are never faulted.
                         out.reserve(chunk.size() * 5 / 4 *
                                     (groups.size() / kRenderChunkGroups + 1));
                       }
                       out += chunk;
                     });
  return out;
}

Status WriteSuspiciousGroupsFile(const std::string& path, const Tpiin& net,
                                 const std::vector<SuspiciousGroup>& groups,
                                 uint32_t num_threads) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  RenderGroupBatches(net, groups, {}, num_threads,
                     [&](const std::string& chunk) {
                       out.write(chunk.data(), chunk.size());
                     });
  return file.Commit();
}

Status WriteSuspiciousTradesFile(
    const std::string& path, const Tpiin& net,
    const std::vector<std::pair<NodeId, NodeId>>& trades) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  for (const auto& [seller, buyer] : trades) {
    file.stream() << net.Label(seller) << " -> " << net.Label(buyer)
                  << "\n";
  }
  return file.Commit();
}

Status WriteDetectionReport(const std::string& path, const Tpiin& net,
                            const DetectionResult& result,
                            uint32_t num_threads) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  out << result.Summary() << "\n\n";
  out << "Suspicious trading relationships:\n";
  for (const auto& [seller, buyer] : result.suspicious_trades) {
    out << "  " << net.Label(seller) << " -> " << net.Label(buyer) << "\n";
  }
  for (const IntraSyndicateFinding& finding : result.intra_syndicate) {
    out << "  [intra-SCC " << net.Label(finding.syndicate_node)
        << "] company#" << finding.seller << " -> company#"
        << finding.buyer << "\n";
  }
  out << "\nSuspicious groups:\n";
  RenderGroupBatches(net, result.groups, "  ", num_threads,
                     [&](const std::string& chunk) {
                       out.write(chunk.data(), chunk.size());
                     });
  return file.Commit();
}

}  // namespace tpiin
