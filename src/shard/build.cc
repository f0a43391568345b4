#include "shard/build.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "obs/report.h"
#include "shard/gids.h"
#include "shard/plan.h"
#include "snapshot/snapshot.h"

namespace tpiin {

namespace {

constexpr size_t kNumTables = 6;
constexpr const char* kTableFiles[kNumTables] = {
    "persons.csv",   "companies.csv",  "interdependence.csv",
    "influence.csv", "investment.csv", "trades.csv"};
constexpr const char* kTableHeaders[kNumTables] = {
    "id,name,roles", "id,name", "person_a,person_b,kind",
    "person,company,kind,legal_person", "investor,investee,share",
    "seller,buyer"};

std::string SpillDirOf(const std::string& out_dir, uint32_t shard) {
  return out_dir + StringPrintf("/spill/shard-%05u", shard);
}

/// Routes verbatim raw rows into per-(shard, table) spill files. Buffers
/// are flushed with open-append-close so the router never holds more
/// than one file descriptor per flush regardless of shard count.
class SpillRouter {
 public:
  SpillRouter(const std::string& out_dir, uint32_t num_shards,
              size_t buffer_bytes)
      : out_dir_(out_dir),
        num_shards_(num_shards),
        buffer_bytes_(std::max<size_t>(buffer_bytes, 4096)),
        buffers_(static_cast<size_t>(num_shards) * kNumTables) {}

  /// Creates every spill directory with header-only CSV files, so each
  /// one is a loadable dataset even for a shard that receives no rows.
  Status Init() {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      const std::string dir = SpillDirOf(out_dir_, s);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        return Status::IOError(dir + ": cannot create spill directory");
      }
      for (size_t t = 0; t < kNumTables; ++t) {
        std::ofstream file(dir + "/" + kTableFiles[t],
                           std::ios::binary | std::ios::trunc);
        file << kTableHeaders[t] << '\n';
        if (!file.good()) {
          return Status::IOError(dir + ": cannot write spill header");
        }
      }
    }
    return Status::OK();
  }

  Status Append(uint32_t shard, size_t table, std::string_view raw) {
    std::string& buffer = buffers_[shard * kNumTables + table];
    buffer += raw;
    buffer += '\n';
    if (buffer.size() >= buffer_bytes_) return Flush(shard, table);
    return Status::OK();
  }

  Status FlushAll() {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      for (size_t t = 0; t < kNumTables; ++t) {
        TPIIN_RETURN_IF_ERROR(Flush(s, t));
      }
    }
    return Status::OK();
  }

 private:
  Status Flush(uint32_t shard, size_t table) {
    std::string& buffer = buffers_[shard * kNumTables + table];
    if (buffer.empty()) return Status::OK();
    const std::string path =
        SpillDirOf(out_dir_, shard) + "/" + kTableFiles[table];
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file.write(buffer.data(),
               static_cast<std::streamsize>(buffer.size()));
    file.close();
    if (!file.good()) return Status::IOError(path + ": spill append failed");
    buffer.clear();
    return Status::OK();
  }

  std::string out_dir_;
  uint32_t num_shards_;
  size_t buffer_bytes_;
  std::vector<std::string> buffers_;
};

/// Same strict row scan as the planning pass; the two passes must agree
/// row for row.
Status ScanRows(const std::string& path, size_t num_columns,
                const std::function<Status(const CsvRow&)>& handler) {
  CsvFileReader reader(path);
  TPIIN_RETURN_IF_ERROR(reader.status());
  CsvRow header;
  if (!reader.Next(&header)) {
    return Status::Corruption(path + ": missing header");
  }
  CsvRow row;
  while (reader.Next(&row)) {
    if (!row.parse.ok()) return row.parse;
    if (row.fields.size() != num_columns) {
      return Status::Corruption(
          StringPrintf("%s:%zu: expected %zu columns", path.c_str(),
                       row.line_number, num_columns));
    }
    TPIIN_RETURN_IF_ERROR(handler(row));
  }
  return reader.status();
}

Result<uint32_t> DenseOf(const ShardIdIndex& index, std::string_view field,
                         const std::string& path, size_t line) {
  Result<int64_t> raw = ParseInt64(field);
  int64_t dense = raw.ok() ? index.Lookup(*raw) : -1;
  if (dense < 0) {
    return Status::Corruption(
        StringPrintf("%s:%zu: unresolvable id %s", path.c_str(), line,
                     std::string(field).c_str()));
  }
  return static_cast<uint32_t>(dense);
}

}  // namespace

Result<ShardManifest> BuildShards(const std::string& data_dir,
                                  const std::string& out_dir,
                                  const ShardBuildOptions& options,
                                  RunReport* report) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return Status::IOError(out_dir + ": cannot create directory");

  // --- Pass 1: plan.
  TraceSpan plan_stage("shard_plan", kStage);
  ShardPlanOptions plan_options;
  plan_options.num_shards = options.num_shards;
  TPIIN_ASSIGN_OR_RETURN(ShardPlan plan, PlanShards(data_dir, plan_options));
  plan_stage.Stop();
  TraceSpan route_stage("shard_route", kStage);

  ShardManifest manifest;
  manifest.num_shards = options.num_shards;
  manifest.num_persons = plan.num_persons;
  manifest.num_companies = plan.num_companies;
  manifest.trade_rows = plan.trade_rows;
  manifest.cross_trade_rows = plan.cross_trade_rows;
  manifest.shards.resize(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    manifest.shards[s].shard = s;
  }

  // --- Pass 2: route raw rows (verbatim — per-shard loads then remap
  // ids in global row order, which is what keeps every shard-local
  // structure an order-preserving restriction of the global one).
  SpillRouter router(out_dir, options.num_shards,
                     options.spill_buffer_bytes);
  TPIIN_RETURN_IF_ERROR(router.Init());
  // Global company ids routed to each shard, in row order: becomes the
  // shard's .gids sidecar and the local->global base of cross dedup.
  std::vector<std::vector<uint32_t>> shard_gids(options.num_shards);
  std::string cross_buffer;
  const std::string cross_path = out_dir + "/spill/cross_trades.bin";
  {
    std::ofstream cross(cross_path, std::ios::binary | std::ios::trunc);
    if (!cross.good()) {
      return Status::IOError(cross_path + ": cannot create spill");
    }
  }
  auto flush_cross = [&]() -> Status {
    if (cross_buffer.empty()) return Status::OK();
    std::ofstream cross(cross_path, std::ios::binary | std::ios::app);
    cross.write(cross_buffer.data(),
                static_cast<std::streamsize>(cross_buffer.size()));
    cross.close();
    if (!cross.good()) {
      return Status::IOError(cross_path + ": spill append failed");
    }
    cross_buffer.clear();
    return Status::OK();
  };

  {
    uint64_t row_index = 0;
    const std::string path = data_dir + "/persons.csv";
    TPIIN_RETURN_IF_ERROR(ScanRows(path, 3, [&](const CsvRow& row) -> Status {
      const uint32_t shard = plan.ShardOfPersonRow(row_index);
      ++manifest.shards[shard].persons;
      ++row_index;
      return router.Append(shard, 0, row.raw);
    }));
  }
  {
    uint64_t row_index = 0;
    const std::string path = data_dir + "/companies.csv";
    TPIIN_RETURN_IF_ERROR(ScanRows(path, 2, [&](const CsvRow& row) -> Status {
      const uint32_t shard = plan.ShardOfCompanyRow(row_index);
      ++manifest.shards[shard].companies;
      shard_gids[shard].push_back(static_cast<uint32_t>(row_index));
      ++row_index;
      return router.Append(shard, 1, row.raw);
    }));
  }
  {
    const std::string path = data_dir + "/interdependence.csv";
    TPIIN_RETURN_IF_ERROR(ScanRows(path, 3, [&](const CsvRow& row) -> Status {
      TPIIN_ASSIGN_OR_RETURN(
          uint32_t a,
          DenseOf(plan.person_index, row.fields[0], path, row.line_number));
      return router.Append(plan.ShardOfPersonRow(a), 2, row.raw);
    }));
  }
  {
    const std::string path = data_dir + "/influence.csv";
    TPIIN_RETURN_IF_ERROR(ScanRows(path, 4, [&](const CsvRow& row) -> Status {
      TPIIN_ASSIGN_OR_RETURN(
          uint32_t p,
          DenseOf(plan.person_index, row.fields[0], path, row.line_number));
      return router.Append(plan.ShardOfPersonRow(p), 3, row.raw);
    }));
  }
  {
    const std::string path = data_dir + "/investment.csv";
    TPIIN_RETURN_IF_ERROR(ScanRows(path, 3, [&](const CsvRow& row) -> Status {
      TPIIN_ASSIGN_OR_RETURN(
          uint32_t a,
          DenseOf(plan.company_index, row.fields[0], path, row.line_number));
      return router.Append(plan.ShardOfCompanyRow(a), 4, row.raw);
    }));
  }
  {
    const std::string path = data_dir + "/trades.csv";
    TPIIN_RETURN_IF_ERROR(ScanRows(path, 2, [&](const CsvRow& row) -> Status {
      TPIIN_ASSIGN_OR_RETURN(
          uint32_t s,
          DenseOf(plan.company_index, row.fields[0], path, row.line_number));
      TPIIN_ASSIGN_OR_RETURN(
          uint32_t b,
          DenseOf(plan.company_index, row.fields[1], path, row.line_number));
      if (plan.company_component[s] == plan.company_component[b]) {
        const uint32_t shard = plan.ShardOfCompanyRow(s);
        ++manifest.shards[shard].trade_rows;
        return router.Append(shard, 5, row.raw);
      }
      // Cross-component: cannot be suspicious (no common antecedent) and
      // is never routed; only its deduplicated arc count is owed to the
      // merged report.
      const uint32_t pair[2] = {s, b};
      cross_buffer.append(reinterpret_cast<const char*>(pair),
                          sizeof(pair));
      if (cross_buffer.size() >= options.spill_buffer_bytes) {
        return flush_cross();
      }
      return Status::OK();
    }));
  }
  TPIIN_RETURN_IF_ERROR(router.FlushAll());
  TPIIN_RETURN_IF_ERROR(flush_cross());
  route_stage.Stop();
  TraceSpan fuse_stage("shard_fuse", kStage);

  // --- Pass 3: load, fuse, snapshot one shard at a time. Peak RSS from
  // here on is the largest single shard, which is the point.
  // Global company id -> smallest global company id in its TPIIN node
  // (identity unless an investment SCC merged several companies): the
  // node-level key that makes cross-trade dedup agree with the
  // TpiinBuilder's per-arc dedup in the unsharded run.
  std::vector<uint32_t> company_rep(plan.num_companies);
  for (uint32_t c = 0; c < plan.num_companies; ++c) company_rep[c] = c;

  for (uint32_t s = 0; s < options.num_shards; ++s) {
    ShardEntry& entry = manifest.shards[s];
    if (entry.persons == 0 && entry.companies == 0) {
      entry.empty = true;
      continue;
    }
    entry.empty = false;
    TPIIN_FAILPOINT("shard.fuse");
    TPIIN_ASSIGN_OR_RETURN(RawDataset dataset,
                           LoadDatasetCsv(SpillDirOf(out_dir, s)));
    TPIIN_ASSIGN_OR_RETURN(FusionOutput fused, BuildTpiin(dataset));
    const Tpiin& net = fused.tpiin;

    const std::string snapshot_path =
        out_dir + "/" + ExpandShardPath(manifest.path_template, s);
    SnapshotWriteOptions write_options;
    write_options.include_wcc_index = options.include_wcc_index;
    TPIIN_RETURN_IF_ERROR(WriteSnapshot(net, snapshot_path, write_options));
    TPIIN_RETURN_IF_ERROR(
        WriteShardGids(snapshot_path + ".gids", shard_gids[s]));

    entry.nodes = net.NumNodes();
    entry.arcs = net.NumArcs();
    entry.influence_arcs = net.num_influence_arcs();
    entry.trading_arcs = net.num_trading_arcs();
    entry.intra_trades = net.intra_syndicate_trades().size();
    entry.snapshot_bytes = std::filesystem::file_size(snapshot_path, ec);
    if (ec) entry.snapshot_bytes = 0;

    // Node-level representative per local company; gids are increasing,
    // so the minimum local member is the minimum global member.
    const std::vector<uint32_t>& gids = shard_gids[s];
    std::vector<uint32_t> node_min(net.NumNodes(), UINT32_MAX);
    for (uint32_t lc = 0; lc < gids.size(); ++lc) {
      const NodeId node = net.NodeOfCompany(lc);
      node_min[node] = std::min(node_min[node], lc);
    }
    for (uint32_t lc = 0; lc < gids.size(); ++lc) {
      company_rep[gids[lc]] = gids[node_min[net.NodeOfCompany(lc)]];
    }
  }

  // --- Cross-trade dedup at node granularity.
  {
    std::ifstream cross(cross_path, std::ios::binary);
    if (!cross.is_open()) {
      return Status::IOError(cross_path + ": cannot reopen spill");
    }
    std::vector<uint64_t> keys;
    keys.reserve(plan.cross_trade_rows);
    uint32_t pair[2];
    while (cross.read(reinterpret_cast<char*>(pair), sizeof(pair))) {
      keys.push_back(
          (static_cast<uint64_t>(company_rep[pair[0]]) << 32) |
          company_rep[pair[1]]);
    }
    if (cross.bad() || keys.size() != plan.cross_trade_rows) {
      return Status::Corruption(cross_path + ": cross spill damaged");
    }
    std::sort(keys.begin(), keys.end());
    manifest.cross_trade_pairs =
        std::unique(keys.begin(), keys.end()) - keys.begin();
  }

  // Manifest last: a crash anywhere above leaves completed shard
  // snapshots (each internally CRC'd) but no manifest, so readers see
  // "no sharded build here" rather than a torn one.
  TPIIN_RETURN_IF_ERROR(
      WriteShardManifest(out_dir + "/" + kShardManifestName, manifest));
  if (!options.keep_spill) {
    std::filesystem::remove_all(out_dir + "/spill", ec);
  }
  fuse_stage.Stop();
  if (report != nullptr) {
    ReportSection& section = report->Section("shard");
    section.Set("num_shards", static_cast<int64_t>(manifest.num_shards));
    section.Set("components", static_cast<int64_t>(plan.num_components));
    section.Set("persons", static_cast<int64_t>(manifest.num_persons));
    section.Set("companies", static_cast<int64_t>(manifest.num_companies));
    section.Set("trade_rows", static_cast<int64_t>(manifest.trade_rows));
    section.Set("cross_trade_rows",
                static_cast<int64_t>(manifest.cross_trade_rows));
    section.Set("cross_trade_pairs",
                static_cast<int64_t>(manifest.cross_trade_pairs));
    uint64_t max_weight = 0;
    for (uint64_t w : plan.shard_weight) max_weight = std::max(max_weight, w);
    section.Set("max_shard_weight", static_cast<int64_t>(max_weight));
  }
  return manifest;
}

}  // namespace tpiin
