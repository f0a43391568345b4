#include "shard/merge.h"

#include <fstream>
#include <iterator>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/report.h"
#include "shard/detect.h"
#include "shard/manifest.h"

namespace tpiin {

namespace {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound(path + ": cannot open shard result");
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError(path + ": read failed");
  return contents;
}

}  // namespace

Result<ShardMergeStats> MergeShards(const std::string& dir,
                                    const std::string& out_path,
                                    RunReport* report) {
  TPIIN_FAILPOINT("shard.merge");
  TraceSpan stage("shard_merge", kStage);
  TPIIN_ASSIGN_OR_RETURN(ShardManifest manifest,
                         ReadShardManifest(dir + "/" + kShardManifestName));

  CanonicalReport merged;
  // The cross-shard pairs are trading arcs of the conceptual global
  // TPIIN that no shard ever saw (their endpoints share no antecedent,
  // so they are unsuspicious by the divide rule); the manifest carries
  // their deduplicated count so the merged denominator matches the
  // unsharded run's.
  merged.summary.total_trading_arcs = manifest.cross_trade_pairs;
  uint64_t shards_merged = 0;

  for (const ShardEntry& entry : manifest.shards) {
    if (entry.empty) continue;
    const std::string path = ShardResultPath(dir, manifest, entry.shard);
    TPIIN_ASSIGN_OR_RETURN(std::string contents, ReadWholeFile(path));
    TPIIN_ASSIGN_OR_RETURN(CanonicalReport part,
                           ParseShardResult(contents, path, entry.shard));
    // Cross-check the result against the build's census: a result file
    // recycled from a different build must not merge silently.
    if (part.summary.total_trading_arcs != entry.trading_arcs ||
        part.summary.intra != entry.intra_trades) {
      return Status::Corruption(StringPrintf(
          "%s: result counts disagree with the manifest entry for shard "
          "%u (stale result file?)",
          path.c_str(), entry.shard));
    }
    merged.summary.subtpiins += part.summary.subtpiins;
    merged.summary.trails += part.summary.trails;
    merged.summary.complex_groups += part.summary.complex_groups;
    merged.summary.simple_groups += part.summary.simple_groups;
    merged.summary.circle_groups += part.summary.circle_groups;
    merged.summary.intra += part.summary.intra;
    merged.summary.suspicious_trades += part.summary.suspicious_trades;
    merged.summary.total_trading_arcs += part.summary.total_trading_arcs;
    merged.summary.skipped_subs += part.summary.skipped_subs;
    merged.summary.degraded |= part.summary.degraded;
    merged.summary.truncated |= part.summary.truncated;
    std::move(part.trades.begin(), part.trades.end(),
              std::back_inserter(merged.trades));
    std::move(part.intra.begin(), part.intra.end(),
              std::back_inserter(merged.intra));
    ++shards_merged;
  }

  TPIIN_RETURN_IF_ERROR(
      WriteFileAtomic(out_path, RenderCanonicalReport(merged)));

  ShardMergeStats stats;
  stats.shards_merged = shards_merged;
  stats.summary = merged.summary;
  stage.Stop();
  if (report != nullptr) {
    ReportSection& section = report->Section("shard_merge");
    section.Set("shards", static_cast<int64_t>(shards_merged));
    section.Set("trades", static_cast<int64_t>(merged.trades.size()));
    section.Set("intra", static_cast<int64_t>(merged.intra.size()));
    section.Set("degraded", merged.summary.degraded);
  }
  return stats;
}

}  // namespace tpiin
