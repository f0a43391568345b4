// End-to-end pipeline benchmark: CSV tables on disk -> fused TPIIN ->
// suspicious groups, swept over worker-thread counts.
//
// This is the serving-shaped number the parallel work targets: one
// full pass of ingestion (LoadDatasetCsv), serial fusion (BuildTpiin)
// and mining (DetectSuspiciousGroups with the per-subTPIIN worker
// fan-out plus a persistent ArenaPool; --threads drives this stage).
// Findings are asserted identical across every thread count — the
// parallel schedule is bit-for-bit the serial algorithm — so the sweep
// isolates pure wall-clock scaling.
//
// A second sweep measures the serve-ready path: the fused TPIIN is
// persisted once as a binary snapshot (`tpiin build`), then every pass
// is mmap open + detect — no ingest, no fusion. The headline record
// `pipeline_snapshot_open_speedup` is CSV ingest+fusion seconds divided
// by snapshot open seconds (the acceptance gate asks for >= 10x).
//
// Flags: --json <path> for machine-readable records (one per thread
// count, metric = best-of-N seconds for the whole CSV->groups pass),
// --threads N to append one extra rung to the default 1/2/4/8 ladder,
// --iters N to change the best-of count (default 3), --snapshot PATH to
// skip the CSV sweep entirely and run only the snapshot rungs against
// an existing file.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_net.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/arena_pool.h"
#include "core/detector.h"
#include "datagen/province.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "snapshot/snapshot.h"

namespace tpiin {
namespace {

struct PassResult {
  double load_s = 0;
  double fuse_s = 0;
  double detect_s = 0;
  size_t groups = 0;
  size_t suspicious_arcs = 0;

  double total() const { return load_s + fuse_s + detect_s; }
};

PassResult RunPass(const std::string& csv_dir, uint32_t threads,
                   ArenaPool* pool) {
  PassResult pass;
  WallTimer timer;
  Result<RawDataset> dataset = LoadDatasetCsv(csv_dir);
  TPIIN_CHECK(dataset.ok()) << dataset.status().ToString();
  pass.load_s = timer.ElapsedSeconds();

  timer.Restart();
  Result<FusionOutput> fused = BuildTpiin(*dataset);
  TPIIN_CHECK(fused.ok()) << fused.status().ToString();
  pass.fuse_s = timer.ElapsedSeconds();

  DetectorOptions options;
  options.match.collect_groups = false;
  options.num_threads = threads;
  options.arena_pool = pool;
  timer.Restart();
  Result<DetectionResult> result =
      DetectSuspiciousGroups(fused->tpiin, options);
  TPIIN_CHECK(result.ok()) << result.status().ToString();
  pass.detect_s = timer.ElapsedSeconds();
  pass.groups = result->TotalGroups();
  pass.suspicious_arcs = result->suspicious_trades.size();
  return pass;
}

// One pass of the serve-ready path: mmap the snapshot, detect. The view
// is opened (and unmapped) every pass — the open cost is the number
// under test.
struct SnapshotPass {
  double open_s = 0;
  double detect_s = 0;
  size_t groups = 0;
  size_t suspicious_arcs = 0;

  double total() const { return open_s + detect_s; }
};

SnapshotPass RunSnapshotPass(const std::string& snapshot_path,
                             uint32_t threads, ArenaPool* pool) {
  SnapshotPass pass;
  WallTimer timer;
  Result<std::unique_ptr<SnapshotView>> view =
      SnapshotView::Open(snapshot_path);
  TPIIN_CHECK(view.ok()) << view.status().ToString();
  pass.open_s = timer.ElapsedSeconds();

  DetectorOptions options;
  options.match.collect_groups = false;
  options.num_threads = threads;
  options.arena_pool = pool;
  timer.Restart();
  Result<DetectionResult> result =
      DetectSuspiciousGroups((*view)->net(), options);
  TPIIN_CHECK(result.ok()) << result.status().ToString();
  pass.detect_s = timer.ElapsedSeconds();
  pass.groups = result->TotalGroups();
  pass.suspicious_arcs = result->suspicious_trades.size();
  return pass;
}

int Run(BenchJsonWriter& json, uint32_t extra_threads, uint32_t iters,
        const std::string& external_snapshot) {
  std::vector<uint32_t> ladder = {1, 2, 4, 8};
  if (extra_threads > 1 &&
      std::find(ladder.begin(), ladder.end(), extra_threads) ==
          ladder.end()) {
    ladder.push_back(extra_threads);
  }

  ArenaPool pool;
  std::string snapshot_path = external_snapshot;
  double serial_cold_start_s = 0;  // Serial ingest+fusion, best pass.
  size_t reference_groups = 0;
  size_t reference_arcs = 0;
  bool have_reference = false;

  if (external_snapshot.empty()) {
    ProvinceConfig config = PaperProvinceConfig();
    config.trading_probability = 0.02;
    Result<Province> province = GenerateProvince(config);
    TPIIN_CHECK(province.ok()) << province.status().ToString();

    const std::string csv_dir = "bench_pipeline_csv";
    std::error_code ec;
    std::filesystem::create_directories(csv_dir, ec);
    TPIIN_CHECK(!ec) << "cannot create " << csv_dir;
    TPIIN_CHECK(SaveDatasetCsv(csv_dir, province->dataset).ok());

    std::printf("=== End-to-end pipeline: CSV -> TPIIN -> groups ===\n");
    std::printf("Dataset: %s (trading p=%.3f), %u hardware thread(s)\n\n",
                province->dataset.Stats().ToString().c_str(),
                config.trading_probability, ResolveThreadCount(0));
    std::printf("%-8s %-9s %-9s %-10s %-10s %-9s %-9s\n", "threads",
                "load(s)", "fuse(s)", "detect(s)", "total(s)", "speedup",
                "groups");

    double serial_total = 0;
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      const uint32_t threads = ladder[rung];
      PassResult best;
      for (uint32_t it = 0; it < iters; ++it) {
        PassResult pass = RunPass(csv_dir, threads, &pool);
        if (it == 0 || pass.total() < best.total()) best = pass;
        // The parallel schedule must reproduce the serial findings
        // exactly, every iteration, at every thread count.
        if (rung == 0 && it == 0) {
          reference_groups = pass.groups;
          reference_arcs = pass.suspicious_arcs;
          have_reference = true;
        }
        TPIIN_CHECK_EQ(pass.groups, reference_groups);
        TPIIN_CHECK_EQ(pass.suspicious_arcs, reference_arcs);
      }
      if (rung == 0) {
        serial_total = best.total();
        serial_cold_start_s = best.load_s + best.fuse_s;
      }
      const double speedup =
          best.total() > 0 ? serial_total / best.total() : 0.0;
      std::printf("%-8u %-9.3f %-9.3f %-10.3f %-10.3f %-9s %zu\n", threads,
                  best.load_s, best.fuse_s, best.detect_s, best.total(),
                  StringPrintf("%.2fx", speedup).c_str(), best.groups);
      const std::string case_name = StringPrintf("threads=%u", threads);
      json.Record("pipeline_csv_to_groups", case_name, best.total(),
                  best.total() > 0 ? reference_arcs / best.total() : 0);
      json.Record("pipeline_fuse", case_name, best.fuse_s);
      json.Record("pipeline_detect", case_name, best.detect_s);
    }

    // Persist the fused TPIIN once (the `tpiin build` step) so the
    // snapshot sweep below pays only mmap open + detect per pass.
    Result<RawDataset> dataset = LoadDatasetCsv(csv_dir);
    TPIIN_CHECK(dataset.ok()) << dataset.status().ToString();
    Result<FusionOutput> fused = BuildTpiin(*dataset);
    TPIIN_CHECK(fused.ok()) << fused.status().ToString();
    snapshot_path = "bench_pipeline.snap";
    WallTimer timer;
    Status written = WriteSnapshot(fused->tpiin, snapshot_path);
    TPIIN_CHECK(written.ok()) << written.ToString();
    const double build_s = timer.ElapsedSeconds();
    std::printf("\nsnapshot built once in %.3fs -> %s\n", build_s,
                snapshot_path.c_str());
    json.Record("pipeline_snapshot_build", "threads=1", build_s);
  }

  std::printf("\n=== Serve-ready path: snapshot mmap -> groups ===\n");
  std::printf("%-8s %-10s %-10s %-10s %-9s\n", "threads", "open(ms)",
              "detect(s)", "total(s)", "groups");
  double serial_open_s = 0;
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    const uint32_t threads = ladder[rung];
    SnapshotPass best;
    for (uint32_t it = 0; it < iters; ++it) {
      SnapshotPass pass = RunSnapshotPass(snapshot_path, threads, &pool);
      if (it == 0 || pass.total() < best.total()) best = pass;
      // Detection from the snapshot must reproduce the CSV path's
      // findings exactly, at every thread count.
      if (!have_reference) {
        reference_groups = pass.groups;
        reference_arcs = pass.suspicious_arcs;
        have_reference = true;
      }
      TPIIN_CHECK_EQ(pass.groups, reference_groups);
      TPIIN_CHECK_EQ(pass.suspicious_arcs, reference_arcs);
    }
    if (rung == 0) serial_open_s = best.open_s;
    std::printf("%-8u %-10.3f %-10.3f %-10.3f %zu\n", threads,
                best.open_s * 1e3, best.detect_s, best.total(),
                best.groups);
    const std::string case_name = StringPrintf("threads=%u", threads);
    json.Record("pipeline_snapshot_open", case_name, best.open_s);
    json.Record("pipeline_snapshot_detect", case_name, best.detect_s);
    json.Record("pipeline_snapshot_to_groups", case_name, best.total(),
                best.total() > 0 ? reference_arcs / best.total() : 0);
  }
  if (serial_cold_start_s > 0 && serial_open_s > 0) {
    const double speedup = serial_cold_start_s / serial_open_s;
    std::printf(
        "\nsnapshot open %.2f ms replaces CSV ingest+fusion %.1f ms: "
        "%.0fx faster startup\n",
        serial_open_s * 1e3, serial_cold_start_s * 1e3, speedup);
    json.Record("pipeline_snapshot_open_speedup", "threads=1", 0, speedup);
  }

  json.Flush();
  std::printf(
      "\n(best of %u passes per rung; findings asserted identical across "
      "all thread counts and both input paths. Arena hit rate %.0f%% "
      "over the whole sweep.)\n",
      iters,
      pool.num_acquires() > 0
          ? 100.0 * pool.num_hits() / pool.num_acquires()
          : 0.0);
  return 0;
}

}  // namespace
}  // namespace tpiin

int main(int argc, char** argv) {
  tpiin::BenchJsonWriter json =
      tpiin::BenchJsonWriter::FromArgs(argc, argv);
  uint32_t extra = tpiin::ParseThreadsFlag(argc, argv, /*default=*/1);
  uint32_t iters = 3;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--iters=", 0) == 0) {
      iters = std::max(1, std::atoi(arg.c_str() + 8));
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::max(1, std::atoi(argv[++i]));
    }
  }
  return tpiin::Run(json, extra, iters,
                    tpiin::ParseSnapshotFlag(argc, argv));
}
