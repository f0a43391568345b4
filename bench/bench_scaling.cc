// Quantifies the efficiency claim of §5.2: the proposed method
// (segmentation + patterns tree + component-pattern matching) against
// the global traversing baseline, across network sizes and trading
// probabilities. The paper reports that the proposed method "greatly
// improves the efficiency" — the shape to reproduce is a widening gap as
// either scale axis grows, with identical findings (checked here).
//
// Two extra modes take the scale axis far past what fits in memory:
//   --unsharded   CSV -> load -> fuse -> detect in one process per rung
//   --sharded     CSV -> shard build/detect/merge (src/shard), the
//                 out-of-core path whose peak RSS is O(largest shard)
// Each rung streams its province to disk (StreamProvinceCsv), runs the
// pipeline, records wall time per stage and the process peak RSS, then
// deletes the rung's work directory. ru_maxrss is monotone over a
// process lifetime, so the two modes must be separate invocations (the
// harness refuses --sharded --unsharded together) and rungs ascend so
// each rung's recorded peak is dominated by that rung's own work.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_net.h"
#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/baseline.h"
#include "core/detector.h"
#include "core/scoring.h"
#include "datagen/province.h"
#include "datagen/stream.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "obs/rss.h"
#include "shard/build.h"
#include "shard/canonical.h"
#include "shard/detect.h"
#include "shard/merge.h"

namespace tpiin {
namespace {

struct Row {
  uint32_t companies;
  double p;
  double fuse_s;
  double detect_s;
  double baseline_root_s;
  double baseline_all_s;
  double baseline_naive_s;
  size_t groups;
  size_t arcs;
};

// Timings that only need the fused net: Algorithm 1 plus the baselines.
// `run_naive` gates the quadratic formulation (see Measure).
void MeasureDetectors(const Tpiin& net, bool run_naive, Row* row) {
  WallTimer timer;
  DetectorOptions options;
  options.match.collect_groups = false;
  Result<DetectionResult> result = DetectSuspiciousGroups(net, options);
  TPIIN_CHECK(result.ok());
  row->detect_s = timer.ElapsedSeconds();
  row->groups = result->num_simple + result->num_complex;
  row->arcs = result->suspicious_trades.size();

  BaselineOptions root_options;
  root_options.collect_groups = false;
  timer.Restart();
  BaselineResult root = DetectBaseline(net, root_options);
  row->baseline_root_s = timer.ElapsedSeconds();
  TPIIN_CHECK_EQ(root.num_simple + root.num_complex, row->groups);
  TPIIN_CHECK_EQ(root.suspicious_trades.size(), row->arcs);

  BaselineOptions all_options;
  all_options.anchor = BaselineAnchor::kAllNodes;
  all_options.collect_groups = false;
  timer.Restart();
  BaselineResult all = DetectBaseline(net, all_options);
  row->baseline_all_s = timer.ElapsedSeconds();
  TPIIN_CHECK_EQ(all.suspicious_trades.size(), row->arcs);

  if (run_naive) {
    BaselineOptions naive_options;
    naive_options.naive_pairing = true;
    naive_options.collect_groups = false;
    timer.Restart();
    BaselineResult naive = DetectBaseline(net, naive_options);
    row->baseline_naive_s = timer.ElapsedSeconds();
    TPIIN_CHECK_EQ(naive.num_simple + naive.num_complex, row->groups);
  }
}

Row Measure(uint32_t companies, double p, uint64_t seed) {
  ProvinceConfig config = PaperProvinceConfig(seed);
  config = ScaleConfig(
      config, static_cast<double>(companies) / config.num_companies);
  config.trading_probability = p;
  Result<Province> province = GenerateProvince(config);
  TPIIN_CHECK(province.ok()) << province.status().ToString();

  Row row{companies, p, 0, 0, 0, 0, 0, 0, 0};
  WallTimer timer;
  Result<FusionOutput> fused = BuildTpiin(province->dataset);
  TPIIN_CHECK(fused.ok()) << fused.status().ToString();
  row.fuse_s = timer.ElapsedSeconds();
  const Tpiin& net = fused->tpiin;

  // The naive pairwise-check formulation the paper describes is
  // quadratic in trails per anchor, so only measured on bounded
  // instances.
  const bool run_naive =
      static_cast<uint64_t>(companies) * static_cast<uint64_t>(p * 1e4) <=
      2452ull * 100ull;
  MeasureDetectors(net, run_naive, &row);
  return row;
}

struct OutOfCoreOptions {
  bool sharded = false;
  bool unsharded = false;
  uint32_t shards = 16;
  uint32_t threads = 1;
  /// 0 = mode default: 1,000,416 sharded (factor 408 — the million-
  /// company acceptance rung), 245,200 unsharded (factor 100 — past
  /// that the in-memory dataset is the point being avoided).
  uint64_t max_companies = 0;
  std::string workdir = "/tmp/tpiin-bench-scaling";
  bool keep_work = false;
};

OutOfCoreOptions ParseOutOfCore(int argc, char** argv) {
  OutOfCoreOptions opt;
  auto u64_flag = [&](const std::string& arg, const char* prefix,
                      uint64_t* out) {
    if (arg.rfind(prefix, 0) != 0) return false;
    *out = std::strtoull(arg.c_str() + std::strlen(prefix), nullptr, 10);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t value = 0;
    if (arg == "--sharded") {
      opt.sharded = true;
    } else if (arg == "--unsharded") {
      opt.unsharded = true;
    } else if (u64_flag(arg, "--shards=", &value)) {
      opt.shards = static_cast<uint32_t>(value);
    } else if (u64_flag(arg, "--max-companies=", &value)) {
      opt.max_companies = value;
    } else if (arg.rfind("--workdir=", 0) == 0) {
      opt.workdir = arg.substr(std::strlen("--workdir="));
    } else if (arg == "--keep-work") {
      opt.keep_work = true;
    }
  }
  return opt;
}

// One out-of-core rung ladder. Factors multiply the paper population
// (2452 companies); the trading probability divides by the factor so the
// expected trading-arc count grows linearly with the population instead
// of quadratically — per-company trade volume, not pair density, is what
// a bigger province holds constant.
int RunOutOfCore(BenchJsonWriter& json, const OutOfCoreOptions& opt) {
  namespace fs = std::filesystem;
  const bool sharded = opt.sharded;
  const char* mode = sharded ? "sharded" : "unsharded";
  const uint64_t max_companies =
      opt.max_companies != 0 ? opt.max_companies
                             : (sharded ? 1000416ull : 245200ull);
  std::printf("=== Out-of-core ladder (%s, up to %llu companies%s) ===\n\n",
              mode, static_cast<unsigned long long>(max_companies),
              sharded ? StringPrintf(", %u shards", opt.shards).c_str()
                      : "");
  std::printf("%-10s %-10s %-8s %-9s %-9s %-9s %-9s %-9s %-8s\n",
              "companies", "trades", "gen(s)",
              sharded ? "build(s)" : "load(s)",
              sharded ? "detect(s)" : "fuse(s)",
              sharded ? "merge(s)" : "detect(s)", "total(s)", "rss(MB)",
              "groups");

  const double factors[] = {1, 10, 100, 408};
  for (double factor : factors) {
    ProvinceConfig config =
        ScaleConfig(PaperProvinceConfig(/*seed=*/20170402), factor);
    if (config.num_companies > max_companies) break;
    config.trading_probability /= factor;

    const std::string rung_dir =
        opt.workdir + StringPrintf("/rung-%u", config.num_companies);
    const std::string data_dir = rung_dir + "/data";
    std::error_code ec;
    fs::remove_all(rung_dir, ec);
    fs::create_directories(data_dir, ec);
    TPIIN_CHECK(!ec) << "cannot create " << data_dir;
    const std::string case_name =
        StringPrintf("companies=%u", config.num_companies);

    WallTimer total;
    WallTimer timer;
    Result<StreamStats> stream = StreamProvinceCsv(config, data_dir);
    TPIIN_CHECK(stream.ok()) << stream.status().ToString();
    const double gen_s = timer.ElapsedSeconds();
    json.Record(StringPrintf("%s_gen", mode), case_name, gen_s,
                gen_s > 0 ? stream->trades / gen_s : 0);

    double stage_s[3] = {0, 0, 0};
    size_t groups = 0;
    if (sharded) {
      const std::string shard_dir = rung_dir + "/shards";
      ShardBuildOptions build;
      build.num_shards = opt.shards;
      timer.Restart();
      Result<ShardManifest> manifest =
          BuildShards(data_dir, shard_dir, build);
      TPIIN_CHECK(manifest.ok()) << manifest.status().ToString();
      stage_s[0] = timer.ElapsedSeconds();
      ShardDetectOptions detect;
      detect.num_threads = opt.threads;
      timer.Restart();
      Result<ShardDetectStats> dstats = DetectShards(shard_dir, detect);
      TPIIN_CHECK(dstats.ok()) << dstats.status().ToString();
      stage_s[1] = timer.ElapsedSeconds();
      timer.Restart();
      Result<ShardMergeStats> mstats =
          MergeShards(shard_dir, rung_dir + "/merged.txt");
      TPIIN_CHECK(mstats.ok()) << mstats.status().ToString();
      stage_s[2] = timer.ElapsedSeconds();
      groups = mstats->summary.complex_groups +
               mstats->summary.simple_groups +
               mstats->summary.circle_groups;
      json.Record("sharded_build", case_name, stage_s[0]);
      json.Record("sharded_detect", case_name, stage_s[1]);
      json.Record("sharded_merge", case_name, stage_s[2]);
    } else {
      timer.Restart();
      Result<RawDataset> dataset = LoadDatasetCsv(data_dir);
      TPIIN_CHECK(dataset.ok()) << dataset.status().ToString();
      stage_s[0] = timer.ElapsedSeconds();
      timer.Restart();
      Result<FusionOutput> fused = BuildTpiin(*dataset);
      TPIIN_CHECK(fused.ok()) << fused.status().ToString();
      stage_s[1] = timer.ElapsedSeconds();
      const Tpiin& net = fused->tpiin;
      DetectorOptions options;
      options.num_threads = opt.threads;
      timer.Restart();
      Result<DetectionResult> detection =
          DetectSuspiciousGroups(net, options);
      TPIIN_CHECK(detection.ok()) << detection.status().ToString();
      ScoringResult scoring = ScoreDetection(net, *detection);
      Status written = WriteFileAtomic(
          rung_dir + "/ranked.txt",
          RenderCanonicalReport(
              BuildCanonicalReport(net, *detection, scoring)));
      TPIIN_CHECK(written.ok()) << written.ToString();
      stage_s[2] = timer.ElapsedSeconds();
      groups = detection->num_simple + detection->num_complex +
               detection->num_cycle_groups;
      json.Record("unsharded_load", case_name, stage_s[0]);
      json.Record("unsharded_fuse", case_name, stage_s[1]);
      json.Record("unsharded_detect", case_name, stage_s[2]);
    }

    const double total_s = total.ElapsedSeconds();
    const double rss_mb = PeakRssBytes() / (1024.0 * 1024.0);
    // Peak RSS rides the `seconds` field so bench_compare's
    // lower-is-better gate applies to memory exactly as to time.
    json.Record(StringPrintf("%s_total", mode), case_name, total_s,
                total_s > 0 ? config.num_companies / total_s : 0);
    json.Record(StringPrintf("%s_peak_rss_mb", mode), case_name, rss_mb);
    std::printf(
        "%-10u %-10llu %-8.2f %-9.2f %-9.2f %-9.2f %-9.2f %-9.1f %zu\n",
        config.num_companies,
        static_cast<unsigned long long>(stream->trades), gen_s, stage_s[0],
        stage_s[1], stage_s[2], total_s, rss_mb, groups);
    std::fflush(stdout);
    if (!opt.keep_work) fs::remove_all(rung_dir, ec);
  }
  if (!opt.keep_work) {
    std::error_code ec;
    fs::remove(opt.workdir, ec);  // Only if now empty.
  }
  json.Flush();
  std::printf(
      "\n(peak RSS is the process high-water mark after the rung "
      "completes; rungs ascend, so each value is dominated by its own "
      "rung. Compare --sharded against --unsharded from separate "
      "invocations — ru_maxrss never decreases within one process.)\n");
  return 0;
}

int Run(BenchJsonWriter& json, uint32_t num_threads,
        BenchNetSource& source) {
  std::printf("=== Efficiency: proposed method vs global traversal "
              "(§5.2) ===\n\n");
  if (source.from_snapshot()) {
    // Snapshot mode replaces the generate->fuse ladder with one row on
    // the pre-built net: mmap open, then Algorithm 1 vs the baselines.
    const Tpiin& net = source.Open();
    Row row{net.NumNodes(), 0, source.open_seconds(), 0, 0, 0, 0, 0, 0};
    MeasureDetectors(net, /*run_naive=*/false, &row);
    std::printf("%-10s %-9s %-9s %-11s %-11s %-9s %-8s\n", "nodes",
                "open(s)", "Alg1(s)", "base-root(s)", "base-all(s)",
                "groups", "arcs");
    std::printf("%-10u %-9.4f %-9.3f %-11.3f %-11.3f %-9zu %zu\n",
                net.NumNodes(), row.fuse_s, row.detect_s,
                row.baseline_root_s, row.baseline_all_s, row.groups,
                row.arcs);
    json.Record("scaling_snapshot_open", "snapshot", row.fuse_s);
    json.Record("detect", "snapshot", row.detect_s,
                row.detect_s > 0 ? row.groups / row.detect_s : 0);
    json.Record("baseline_root", "snapshot", row.baseline_root_s);
    json.Record("baseline_all", "snapshot", row.baseline_all_s);
    json.Flush();
    return 0;
  }
  if (source.write_requested()) {
    // Persist the paper-scale rung's net so a later --snapshot run can
    // skip datagen and fusion entirely.
    ProvinceConfig config = PaperProvinceConfig(/*seed=*/20170402);
    config.trading_probability = 0.01;
    Result<Province> province = GenerateProvince(config);
    TPIIN_CHECK(province.ok()) << province.status().ToString();
    Result<FusionOutput> fused = BuildTpiin(province->dataset);
    TPIIN_CHECK(fused.ok()) << fused.status().ToString();
    source.MaybeWrite(fused->tpiin);
  }
  const uint32_t threads = ResolveThreadCount(num_threads);
  if (threads > 1) {
    std::printf("Ladder measured on %u threads (timings contended; use "
                "--threads=1 for clean numbers)\n\n", threads);
  }
  std::printf("%-10s %-7s %-8s %-9s %-11s %-11s %-12s %-9s %-9s %-8s\n",
              "companies", "p", "fuse(s)", "Alg1(s)", "base-root(s)",
              "base-all(s)", "base-naive(s)", "speedup", "groups", "arcs");

  std::vector<std::pair<uint32_t, double>> settings = {
      {300, 0.01},  {600, 0.01},  {1200, 0.01}, {2452, 0.01},
      {2452, 0.002}, {2452, 0.02}, {2452, 0.05},
  };
  // Ladder rungs are independent (each generates its own province from a
  // fixed seed), so they fan out across the shared pool; rows are
  // buffered and reported in ladder order, identical at any thread count.
  std::vector<Row> rows(settings.size());
  ThreadPool::Global().ParallelFor(
      settings.size(), threads, [&](size_t i) {
        rows[i] = Measure(settings[i].first, settings[i].second,
                          /*seed=*/20170402);
      });
  for (const Row& row : rows) {
    double reference = row.baseline_naive_s > 0 ? row.baseline_naive_s
                                                : row.baseline_all_s;
    std::printf(
        "%-10u %-7.3f %-8.3f %-9.3f %-11.3f %-11.3f %-12.3f %-8.1fx "
        "%-9zu %zu\n",
        row.companies, row.p, row.fuse_s, row.detect_s,
        row.baseline_root_s, row.baseline_all_s, row.baseline_naive_s,
        row.detect_s > 0 ? reference / row.detect_s : 0.0, row.groups,
        row.arcs);
    std::string case_name =
        StringPrintf("companies=%u,p=%.3f", row.companies, row.p);
    json.Record("fuse", case_name, row.fuse_s);
    json.Record("detect", case_name, row.detect_s,
                row.detect_s > 0 ? row.groups / row.detect_s : 0);
    json.Record("baseline_root", case_name, row.baseline_root_s);
    json.Record("baseline_all", case_name, row.baseline_all_s);
    if (row.baseline_naive_s > 0) {
      json.Record("baseline_naive", case_name, row.baseline_naive_s);
    }
  }
  json.Flush();
  std::printf("\n(speedup = slowest measured baseline / Algorithm 1; "
              "findings are asserted identical. base-naive is the "
              "paper's literal 'check every trail pair' formulation, "
              "skipped where it would dominate the harness runtime.)\n");
  return 0;
}

}  // namespace
}  // namespace tpiin

int main(int argc, char** argv) {
  tpiin::BenchJsonWriter json =
      tpiin::BenchJsonWriter::FromArgs(argc, argv);
  tpiin::OutOfCoreOptions out_of_core =
      tpiin::ParseOutOfCore(argc, argv);
  if (out_of_core.sharded && out_of_core.unsharded) {
    std::fprintf(stderr,
                 "--sharded and --unsharded need separate processes: "
                 "ru_maxrss is monotone, one run would contaminate the "
                 "other's peak\n");
    return 2;
  }
  if (out_of_core.sharded || out_of_core.unsharded) {
    out_of_core.threads = tpiin::ParseThreadsFlag(argc, argv);
    return tpiin::RunOutOfCore(json, out_of_core);
  }
  tpiin::BenchNetSource source = tpiin::BenchNetSource::FromArgs(argc, argv);
  return tpiin::Run(json, tpiin::ParseThreadsFlag(argc, argv), source);
}
