// perfbench_driver: the measuring half of the tpiin benchmark. run.py
// generates the inputs and calls one subcommand per phase:
//
//   shuffle    reorders the rows of each generated CSV table by the seed
//   reference  in-process CSV -> BuildTpiin -> DetectSuspiciousGroups ->
//              reports (the expected bytes), an optional snapshot, and
//              the serve traffic plan with expected answer digests
//   batch      one timed pass: CSV -> snapshot (setup) and snapshot ->
//              the four reports (groups)
//   serve      launches `tpiin serve` and drives it over loopback
//              (serve.cc)
//   layers     the traced run: every layer's public functions timed
//              separately (the sharded path included), spans written as
//              Chrome trace_event JSON
//   replay     the traced run's serve window replayed in-process
//
// Each subcommand writes one JSON object; run.py turns them into the
// benchmark's metrics and correctness verdict. Timings stop before any
// digest is taken.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/atomic_file.h"
#include "core/detector.h"
#include "core/explain.h"
#include "core/matcher.h"
#include "core/pattern_tree.h"
#include "core/scoring.h"
#include "core/subtpiin.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "io/pattern_file.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "shard/build.h"
#include "shard/canonical.h"
#include "shard/detect.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "shard/plan.h"
#include "snapshot/snapshot.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

int ServeMain(const std::map<std::string, std::string>& args);  // serve.cc

namespace {

namespace fs = std::filesystem;
using tpiin::DetectionResult;
using tpiin::NodeId;

constexpr size_t kLayerReps = 2;       // Repetitions of each layer probe.
constexpr uint32_t kShards = 8;        // The sharded path: BuildShards into
constexpr uint32_t kShardParallel = 4;  // 8 shards, DetectShards 4 at once.

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T OrDie(tpiin::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

void OrDie(const tpiin::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::string Arg(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  auto it = args.find(key);
  if (it != args.end()) return it->second;
  if (fallback.empty()) Die("missing --" + key);
  return fallback;
}

uint32_t ArgU32(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  return static_cast<uint32_t>(std::stoul(Arg(args, key, fallback)));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

const char* const kReports[] = {"susGroup.txt", "susTrade.txt", "report.txt",
                                "ranked.txt"};

// The four reports, written exactly as `tpiin detect --out` writes them.
void WriteReports(const std::string& dir, const tpiin::Tpiin& net,
                  const DetectionResult& det,
                  const tpiin::ScoringResult& scoring) {
  fs::create_directories(dir);
  OrDie(tpiin::WriteSuspiciousGroupsFile(dir + "/susGroup.txt", net,
                                         det.groups),
        "susGroup.txt");
  OrDie(tpiin::WriteSuspiciousTradesFile(dir + "/susTrade.txt", net,
                                         det.suspicious_trades),
        "susTrade.txt");
  OrDie(tpiin::WriteDetectionReport(dir + "/report.txt", net, det),
        "report.txt");
  OrDie(tpiin::WriteFileAtomic(
            dir + "/ranked.txt",
            tpiin::RenderCanonicalReport(
                tpiin::BuildCanonicalReport(net, det, scoring))),
        "ranked.txt");
}

std::vector<std::string> ReportDigests(const std::string& dir) {
  std::vector<std::string> out;
  for (const char* name : kReports) out.push_back(FileDigest(dir + "/" + name));
  return out;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

tpiin::Result<DetectionResult> Detect(const tpiin::Tpiin& net,
                                      uint32_t threads) {
  tpiin::DetectorOptions options;
  options.num_threads = threads;
  return tpiin::DetectSuspiciousGroups(net, options);
}

// Shuffles the data rows of every CSV table in --data (the header stays
// first) with a generator seeded by --seed. The network, and so the work,
// is the same for every seed; node ids, arc order and every hash-table
// insertion order differ.
int ShuffleMain(const std::map<std::string, std::string>& args) {
  std::mt19937_64 rng(std::stoull(Arg(args, "seed")));
  std::vector<std::string> tables;
  for (const auto& entry : fs::directory_iterator(Arg(args, "data"))) {
    if (entry.path().extension() == ".csv") tables.push_back(entry.path());
  }
  std::sort(tables.begin(), tables.end());
  for (const std::string& path : tables) {
    std::string text;
    if (!ReadFile(path, &text)) Die("read " + path);
    std::vector<std::string_view> rows;
    for (size_t at = 0; at < text.size();) {
      size_t end = text.find('\n', at);
      if (end == std::string::npos) end = text.size() - 1;
      rows.emplace_back(text.data() + at, end + 1 - at);
      at = end + 1;
    }
    if (rows.size() > 2) std::shuffle(rows.begin() + 1, rows.end(), rng);
    std::string out;
    out.reserve(text.size() + 1);
    for (std::string_view row : rows) {
      out += row;
      if (out.back() != '\n') out += '\n';
    }
    OrDie(tpiin::WriteFileAtomic(path, out), "write " + path);
  }
  return 0;
}

// ---------------------------------------------------------------- passes

struct BatchPass {
  double load_s = 0, build_s = 0, write_s = 0, setup_s = 0;
  double open_s = 0, detect_s = 0, score_s = 0, reports_s = 0, groups_s = 0;
  double csv_mb = 0, snapshot_mb = 0, reports_mb = 0;
  tpiin::FusionStats fusion;
  size_t subtpiins = 0, trails = 0, groups = 0;
};

// One batch pass: CSV -> snapshot (setup), then snapshot -> the four
// reports (groups). With a disabled tracer the spans only time.
BatchPass RunBatchPass(Tracer* tracer, const std::string& data,
                       const std::string& work, uint32_t threads) {
  BatchPass p;
  const std::string snap = work + "/net.snap";
  {
    Tracer::Span setup(tracer, "bench", "setup");
    tpiin::RawDataset dataset;
    {
      Tracer::Span s(tracer, "io", "io.load_csv");
      dataset = OrDie(tpiin::LoadDatasetCsv(data), "LoadDatasetCsv");
      p.load_s = s.Stop();
    }
    tpiin::FusionOutput fused;
    {
      Tracer::Span s(tracer, "fusion", "fusion.build");
      tpiin::FusionOptions options;
      options.num_threads = threads;
      fused = OrDie(tpiin::BuildTpiin(dataset, options), "BuildTpiin");
      p.build_s = s.Stop();
    }
    {
      Tracer::Span s(tracer, "snapshot", "snapshot.write");
      OrDie(tpiin::WriteSnapshot(fused.tpiin, snap), "WriteSnapshot");
      p.write_s = s.Stop();
    }
    p.fusion = fused.stats;
    p.setup_s = setup.Stop();
  }
  {
    Tracer::Span groups(tracer, "bench", "groups");
    std::unique_ptr<tpiin::SnapshotView> view;
    {
      Tracer::Span s(tracer, "snapshot", "snapshot.open");
      view = OrDie(tpiin::SnapshotView::Open(snap), "SnapshotView::Open");
      p.open_s = s.Stop();
    }
    DetectionResult det;
    {
      Tracer::Span s(tracer, "core", "core.detect");
      det = OrDie(Detect(view->net(), threads), "DetectSuspiciousGroups");
      p.detect_s = s.Stop();
    }
    tpiin::ScoringResult scoring;
    {
      Tracer::Span s(tracer, "core", "core.score");
      scoring = tpiin::ScoreDetection(view->net(), det);
      p.score_s = s.Stop();
    }
    {
      Tracer::Span s(tracer, "io", "io.reports");
      WriteReports(work + "/reports", view->net(), det, scoring);
      p.reports_s = s.Stop();
    }
    p.subtpiins = det.num_subtpiins;
    p.trails = det.num_trails;
    p.groups = det.TotalGroups();
    p.groups_s = groups.Stop();
  }
  p.csv_mb = static_cast<double>(DirBytes(data)) / 1e6;
  p.snapshot_mb = static_cast<double>(fs::file_size(snap)) / 1e6;
  p.reports_mb = static_cast<double>(DirBytes(work + "/reports")) / 1e6;
  return p;
}

struct ShardPass {
  double build_s = 0, detect_s = 0, merge_s = 0;
  tpiin::ShardManifest manifest;
};

// One sharded pass: BuildShards, DetectShards, MergeShards into
// ranked.txt. The shard directory is cleared first, outside the timing.
ShardPass RunShardPass(Tracer* tracer, const std::string& data,
                       const std::string& work, uint32_t threads,
                       uint32_t shards, uint32_t parallel) {
  ShardPass p;
  const std::string dir = work + "/shards";
  fs::remove_all(dir);
  {
    Tracer::Span s(tracer, "shard", "shard.build");
    tpiin::ShardBuildOptions options;
    options.num_shards = shards;
    options.num_threads = threads;
    p.manifest = OrDie(tpiin::BuildShards(data, dir, options), "BuildShards");
    p.build_s = s.Stop();
  }
  {
    Tracer::Span s(tracer, "shard", "shard.detect");
    tpiin::ShardDetectOptions options;
    options.num_threads = threads;
    options.shard_parallel = parallel;
    OrDie(tpiin::DetectShards(dir, options), "DetectShards");
    p.detect_s = s.Stop();
  }
  {
    Tracer::Span s(tracer, "shard", "shard.merge");
    OrDie(tpiin::MergeShards(dir, work + "/ranked.txt"), "MergeShards");
    p.merge_s = s.Stop();
  }
  return p;
}

// The largest shard snapshot's share of all shard snapshot bytes.
double LargestFrac(const tpiin::ShardManifest& m) {
  uint64_t total = 0, best = 0;
  for (const tpiin::ShardEntry& e : m.shards) {
    total += e.snapshot_bytes;
    best = std::max(best, e.snapshot_bytes);
  }
  return total == 0 ? 0.0 : static_cast<double>(best) / total;
}

// One batch pass per process, so each pass's peak RSS is its own. With
// --trace-out the pass is traced: a root span with a child span per layer
// call, written as Chrome trace_event JSON, and the layer times reported.
int BatchMain(const std::map<std::string, std::string>& args) {
  const std::string work = Arg(args, "work");
  fs::create_directories(work);
  Tracer tracer(args.count("trace-out") > 0);
  BatchPass p;
  {
    Tracer::Span root(&tracer, "bench", "pass");
    p = RunBatchPass(&tracer, Arg(args, "data"), work, ArgU32(args, "threads"));
  }
  JsonObject out;
  out.Num("setup_s", p.setup_s);
  out.Num("groups_s", p.groups_s);
  out.Str("digest", Join(ReportDigests(work + "/reports")));
  out.Num("peak_rss_mb", PeakRssMb());
  out.Str("snapshot", work + "/net.snap");
  if (tracer.enabled()) {
    out.Num("io.load_csv_s", p.load_s);
    out.Num("fusion.build_s", p.build_s);
    out.Num("snapshot.write_s", p.write_s);
    out.Num("snapshot.open_s", p.open_s);
    out.Num("core.detect_s", p.detect_s);
    out.Num("core.score_s", p.score_s);
    out.Num("io.reports_s", p.reports_s);
    out.Num("trace.setup_layers_s", p.load_s + p.build_s + p.write_s);
    out.Num("trace.groups_layers_s",
            p.open_s + p.detect_s + p.score_s + p.reports_s);
    out.Num("csv_mb", p.csv_mb);
    out.Num("io.reports_mb", p.reports_mb);
    out.Num("snapshot.mb", p.snapshot_mb);
    out.Num("fusion.trade_records", static_cast<double>(p.fusion.trade_records));
    out.Num("fusion.trading_arcs", static_cast<double>(p.fusion.trading_arcs));
    out.Num("fusion.antecedent_nodes",
            static_cast<double>(p.fusion.antecedent_nodes));
    out.Num("fusion.antecedent_arcs",
            static_cast<double>(p.fusion.antecedent_arcs));
    out.Num("core.subtpiins", static_cast<double>(p.subtpiins));
    out.Num("core.trails", static_cast<double>(p.trails));
    out.Num("core.groups", static_cast<double>(p.groups));
    for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
      out.Num(layer + ".self_s", seconds);
    }
    if (!tracer.WriteChromeJson(args.at("trace-out"))) Die("write trace");
  }
  return out.WriteTo(Arg(args, "out")) ? 0 : 1;
}

// ------------------------------------------------------------- reference

// k elements of `ranked` at evenly spaced ranks (the midpoints of k equal
// slices), or all of them when there are fewer.
template <typename T>
std::vector<T> EvenlySpread(const std::vector<T>& ranked, size_t k) {
  if (ranked.size() <= k) return ranked;
  std::vector<T> out;
  for (size_t i = 0; i < k; ++i) {
    out.push_back(ranked[(2 * i + 1) * ranked.size() / (2 * k)]);
  }
  return out;
}

// Expected answers for the serve traffic, from the library on the
// snapshot the daemon serves: explain is FormatCompanyDossier, the full
// export is RenderSuspiciousGroups (= susGroup.txt), groups?company= is
// the subsequence of susGroup lines naming the company, and rescore is an
// in-process QueryService answer. Sets *export_digest to the digest of
// the full export.
int WritePlan(const std::string& snapshot, uint32_t threads, uint64_t seed,
              size_t drill_len, const std::string& plan_path,
              JsonObject* summary, std::string* export_digest) {
  auto view = OrDie(tpiin::SnapshotView::Open(snapshot), "open " + snapshot);
  const tpiin::Tpiin& net = view->net();
  DetectionResult det = OrDie(Detect(net, threads), "detect");
  tpiin::ScoringResult scoring = tpiin::ScoreDetection(net, det);
  const std::string full = tpiin::RenderSuspiciousGroups(net, det.groups);
  *export_digest = Hex(Digest(full));

  // Analysts drill into 32 companies spread evenly over the ranking by
  // how many groups name them (ties by label), and rescore eight
  // subTPIINs spread evenly over the ranking by group count. Neither
  // ranking depends on row order, so every seed asks for the same mix of
  // small and huge answers (a dossier or rescore can run to tens of MB);
  // the seed orders the request sequence. Popularity is a fixed
  // permutation of the companies with weights 1/sqrt(rank).
  std::vector<size_t> named(net.NumNodes(), 0);
  for (const tpiin::SuspiciousGroup& g : det.groups) {
    for (NodeId m : g.members) ++named[m];
  }
  std::vector<NodeId> ranked;
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    if (net.node(v).color == tpiin::NodeColor::kCompany && named[v] > 0) {
      ranked.push_back(v);
    }
  }
  if (ranked.empty()) Die("the served snapshot has no suspicious groups");
  std::sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
    return named[a] != named[b] ? named[a] > named[b]
                                : net.Label(a) < net.Label(b);
  });
  const std::vector<NodeId> companies = EvenlySpread(ranked, 32);
  std::vector<NodeId> popular = companies;
  std::shuffle(popular.begin(), popular.end(), std::mt19937_64(7));
  std::vector<double> weights;
  for (size_t r = 0; r < popular.size(); ++r) {
    weights.push_back(1.0 / std::sqrt(static_cast<double>(r + 1)));
  }
  std::vector<size_t> subs(det.sub_profiles.size());
  for (size_t i = 0; i < subs.size(); ++i) subs[i] = i;
  std::sort(subs.begin(), subs.end(), [&](size_t a, size_t b) {
    const tpiin::SubTpiinProfile& x = det.sub_profiles[a];
    const tpiin::SubTpiinProfile& y = det.sub_profiles[b];
    return std::tie(y.num_groups, y.num_nodes, y.num_arcs) <
           std::tie(x.num_groups, x.num_nodes, x.num_arcs);
  });
  subs = EvenlySpread(subs, 8);

  std::map<NodeId, std::string> filtered;  // groups?company= payloads.
  for (NodeId c : companies) filtered[c];
  for (const tpiin::SuspiciousGroup& g : det.groups) {
    for (NodeId m : g.members) {
      auto it = filtered.find(m);
      if (it != filtered.end()) it->second += g.Format(net) + "\n";
    }
  }

  tpiin::ServiceOptions options;
  options.threads = threads;
  tpiin::QueryService service(net, view->header_crc(), options, nullptr);
  size_t failures = 0;
  std::map<std::string, PlanEntry> answered;
  auto entry = [&](const std::string& cls, const std::string& kind,
                   const std::string& line, NodeId company) -> PlanEntry {
    auto it = answered.find(line);
    if (it != answered.end()) return it->second;
    std::string expected;
    if (kind == "explain") {
      expected = tpiin::FormatCompanyDossier(
          net, tpiin::BuildCompanyDossier(net, det, scoring, company));
    } else if (kind == "groups") {
      expected = filtered[company];
    } else if (kind == "export") {
      expected = full;
    } else {
      tpiin::Response r =
          service.Handle(OrDie(tpiin::ParseRequestLine(line), "parse " + line));
      if (!r.ok()) ++failures;
      expected = r.payload;
    }
    PlanEntry e{cls, kind, "ok", Hex(Digest(expected)), line};
    answered.emplace(line, e);
    return e;
  };

  // The drill requests are a fixed multiset (drawn from a constant seed);
  // --seed only shuffles their order.
  std::mt19937_64 draw(7);
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<PlanEntry> drill;
  for (size_t i = 0; i < drill_len; ++i) {
    const double x = u(draw);
    const NodeId company = popular[pick(draw)];
    const std::string label(net.Label(company));
    if (x < 0.10 && !subs.empty()) {
      const size_t sub = subs[std::uniform_int_distribution<size_t>(
          0, subs.size() - 1)(draw)];
      drill.push_back(
          entry("drill", "rescore", "rescore?sub=" + std::to_string(sub), 0));
    } else if (x < 0.55) {
      drill.push_back(
          entry("drill", "explain", "explain?company=" + label, company));
    } else {
      drill.push_back(
          entry("drill", "groups", "groups?company=" + label, company));
    }
  }
  std::shuffle(drill.begin(), drill.end(), std::mt19937_64(seed));
  std::string plan;
  for (const PlanEntry& e : drill) plan += FormatPlanEntry(e);
  plan += FormatPlanEntry(entry("export", "export", "groups", 0));

  // What-if: a structural cap K above every subTPIIN's size never binds,
  // so the answer must equal the uncapped drill answer; each distinct K
  // is its own bundle-cache key, and the cycle is longer than the
  // daemon's bundle cache (4 entries), so every what-if runs detection.
  size_t max_sub_nodes = 0;
  for (const tpiin::SubTpiinProfile& s : det.sub_profiles) {
    max_sub_nodes = std::max(max_sub_nodes, s.num_nodes);
  }
  constexpr size_t kWhatIfCaps = 8;
  for (size_t i = 0; i < kWhatIfCaps; ++i) {
    const NodeId company = companies[i * companies.size() / kWhatIfCaps];
    PlanEntry e = entry("drill", "groups",
                        "groups?company=" + std::string(net.Label(company)),
                        company);
    e.cls = e.kind = "whatif";
    e.line += "&max_sub_nodes=" + std::to_string(max_sub_nodes + 1 + i);
    plan += FormatPlanEntry(e);
  }
  OrDie(tpiin::WriteFileAtomic(plan_path, plan), "write plan");
  summary->Num("serve_groups", static_cast<double>(det.groups.size()));
  summary->Num("serve_groups_mb", static_cast<double>(full.size()) / 1e6);
  summary->Num("serve_snapshot_mb",
               static_cast<double>(view->file_size()) / 1e6);
  return failures == 0 ? 0 : 1;
}

int ReferenceMain(const std::map<std::string, std::string>& args) {
  const std::string data = Arg(args, "data"), out_dir = Arg(args, "work");
  const uint32_t threads = ArgU32(args, "threads");
  fs::create_directories(out_dir);
  JsonObject out;
  {
    tpiin::RawDataset dataset =
        OrDie(tpiin::LoadDatasetCsv(data), "LoadDatasetCsv");
    tpiin::FusionOptions fusion;
    fusion.num_threads = threads;
    tpiin::FusionOutput fused =
        OrDie(tpiin::BuildTpiin(dataset, fusion), "BuildTpiin");
    DetectionResult det = OrDie(Detect(fused.tpiin, threads), "detect");
    tpiin::ScoringResult scoring = tpiin::ScoreDetection(fused.tpiin, det);
    WriteReports(out_dir + "/reports", fused.tpiin, det, scoring);
    const tpiin::DatasetStats stats = dataset.Stats();
    out.Num("companies", static_cast<double>(stats.num_companies));
    out.Num("persons", static_cast<double>(stats.num_persons));
    out.Num("trades", static_cast<double>(stats.num_trades));
    out.Num("csv_mb", static_cast<double>(DirBytes(data)) / 1e6);
    out.Num("tpiin_nodes", static_cast<double>(fused.tpiin.NumNodes()));
    out.Num("subtpiins", static_cast<double>(det.num_subtpiins));
    out.Num("groups", static_cast<double>(det.TotalGroups()));
    out.Num("reports_mb",
            static_cast<double>(DirBytes(out_dir + "/reports")) / 1e6);
    if (args.count("write-snapshot")) {
      OrDie(tpiin::WriteSnapshot(fused.tpiin, args.at("write-snapshot")),
            "WriteSnapshot");
    }
  }
  out.Str("digests", Join(ReportDigests(out_dir + "/reports")));
  out.Str("ranked", FileDigest(out_dir + "/reports/ranked.txt"));
  int rc = 0;
  if (args.count("serve-snapshot")) {
    // run.py gates the served export against susGroup.txt of the
    // in-process path above.
    std::string export_digest;
    rc = WritePlan(args.at("serve-snapshot"), threads,
                   std::stoull(Arg(args, "seed")), ArgU32(args, "drill"),
                   Arg(args, "plan"), &out, &export_digest);
    out.Str("export_digest", export_digest);
  }
  return out.WriteTo(out_dir + "/reference.json") ? rc : 1;
}

// ---------------------------------------------------------------- layers

int LayersMain(const std::map<std::string, std::string>& args) {
  const std::string data = Arg(args, "data"), work = Arg(args, "work");
  const uint32_t threads = ArgU32(args, "threads");
  const size_t reps = kLayerReps;
  fs::create_directories(work);
  Tracer tracer(true);
  JsonObject out;
  std::map<std::string, std::vector<double>> t;  // Per-rep samples.

  // Single-threaded fusion: the payoff of the parallel fusion stages.
  {
    Tracer::Span probe(&tracer, "bench", "probe.fusion_t1");
    tpiin::RawDataset dataset = OrDie(tpiin::LoadDatasetCsv(data), "load");
    for (size_t r = 0; r < reps; ++r) {
      Tracer::Span s(&tracer, "fusion", "fusion.build_t1");
      tpiin::FusionOptions options;
      options.num_threads = 1;
      OrDie(tpiin::BuildTpiin(dataset, options), "BuildTpiin t1");
      t["fusion.build_s_t1"].push_back(s.Stop());
    }
  }

  // Detection pieces, on the snapshot the batch passes wrote to --work.
  size_t decomposed_groups = 0, detector_groups = 0;
  {
    Tracer::Span probe(&tracer, "bench", "probe.core");
    auto view = OrDie(tpiin::SnapshotView::Open(work + "/net.snap"), "open");
    const tpiin::Tpiin& net = view->net();
    DetectionResult det;
    for (size_t r = 0; r < reps; ++r) {
      Tracer::Span s(&tracer, "core", "core.detect_t1");
      det = OrDie(Detect(net, 1), "detect t1");
      t["core.detect_s_t1"].push_back(s.Stop());
    }
    detector_groups = det.num_simple + det.num_complex + det.num_cycle_groups;
    for (size_t r = 0; r < reps; ++r) {
      Tracer::Span s(&tracer, "io", "io.render_groups");
      std::string rendered = tpiin::RenderSuspiciousGroups(net, det.groups);
      t["io.render_groups_s"].push_back(s.Stop());
    }
    for (size_t r = 0; r < reps; ++r) {
      Tracer::Span mine(&tracer, "bench", "core.decomposed");
      std::vector<tpiin::SubTpiin> subs;
      {
        Tracer::Span s(&tracer, "core", "core.segment");
        subs = tpiin::SegmentTpiin(net);
        t["core.segment_s"].push_back(s.Stop());
      }
      double pattern = 0, match = 0, max_sub = 0;
      size_t groups = 0;
      for (const tpiin::SubTpiin& sub : subs) {
        tpiin::PatternGenOptions gen_options;
        gen_options.emit_trails = false;
        Tracer::Span g(&tracer, "core", "core.pattern");
        tpiin::PatternGenResult gen = OrDie(
            tpiin::GeneratePatternBase(sub, gen_options), "GeneratePatternBase");
        const double gs = g.Stop();
        Tracer::Span m(&tracer, "core", "core.match");
        tpiin::MatchResult matched = tpiin::MatchPatternsTree(sub, gen.tree);
        const double ms = m.Stop();
        pattern += gs;
        match += ms;
        max_sub = std::max(max_sub, gs + ms);
        groups += matched.num_simple + matched.num_complex +
                  matched.num_cycle_groups;
      }
      t["core.pattern_s"].push_back(pattern);
      t["core.match_s"].push_back(match);
      t["core.max_sub_s"].push_back(max_sub);
      decomposed_groups = groups;
    }
  }

  // Sharded path (planner, router + per-shard fusion, shard detection at
  // both parallelism settings, merge).
  Tracer::Span shard_probe(&tracer, "bench", "probe.shard");
  {
    Tracer::Span s(&tracer, "shard", "shard.plan");
    tpiin::ShardPlanOptions options;
    options.num_shards = kShards;
    OrDie(tpiin::PlanShards(data, options), "PlanShards");
    t["shard.plan_s"].push_back(s.Stop());
  }
  const ShardPass shard =
      RunShardPass(&tracer, data, work, threads, kShards, kShardParallel);
  t["shard.build_s"].push_back(shard.build_s);
  t["shard.detect_s"].push_back(shard.detect_s);
  t["shard.merge_s"].push_back(shard.merge_s);
  {
    Tracer::Span s(&tracer, "shard", "shard.detect_p1");
    tpiin::ShardDetectOptions options;
    options.num_threads = threads;
    options.shard_parallel = 1;
    OrDie(tpiin::DetectShards(work + "/shards", options), "DetectShards p1");
    t["shard.detect_s_p1"].push_back(s.Stop());
  }
  shard_probe.Stop();

  for (const auto& [name, samples] : t) out.Num(name, Median(samples));
  out.Num("reps", static_cast<double>(reps));
  out.Num("core.decomposed_groups", static_cast<double>(decomposed_groups));
  out.Num("core.detector_groups", static_cast<double>(detector_groups));
  out.Num("shard.largest_frac", LargestFrac(shard.manifest));
  out.Str("shard.ranked", FileDigest(work + "/ranked.txt"));
  out.Num("shard.cross_trades",
          static_cast<double>(shard.manifest.cross_trade_rows));

  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    out.Num(layer + ".self_s", seconds);
  }
  if (!tracer.WriteChromeJson(Arg(args, "trace-out"))) Die("write trace");
  return out.WriteTo(Arg(args, "out")) ? 0 : 1;
}

// In-process replay of the socket run's window (WindowSequence over
// --pairs rounds of the plan) into a QueryService over the snapshot the
// daemon serves, warmed as the daemon is: the full `groups` first, then
// every distinct rescore. Per request, ParseRequestLine, Handle and
// SerializeResponse are timed as children of one span; the arrays are in
// window order, so run.py joins them to the socket samples by index.
int ReplayMain(const std::map<std::string, std::string>& args) {
  const uint32_t threads = ArgU32(args, "threads");
  Tracer tracer(true);
  JsonObject out;
  std::vector<PlanEntry> plan;
  if (!ReadPlan(Arg(args, "plan"), &plan)) Die("cannot read the plan");
  std::vector<WindowRequest> window;
  if (!WindowSequence(plan, ArgU32(args, "pairs"), &window)) {
    Die("the plan lacks a request class");
  }
  size_t replay_failed = 0;
  std::vector<double> parse_us, eval_us, ser_us;
  std::vector<std::string> kinds;
  {
    auto view =
        OrDie(tpiin::SnapshotView::Open(Arg(args, "serve-snapshot")), "open");
    tpiin::ServiceOptions options;
    options.threads = threads;
    tpiin::QueryService service(view->net(), view->header_crc(), options,
                                nullptr);
    std::set<std::string> warm = {window[0].entry->line};  // The export.
    service.Handle(OrDie(tpiin::ParseRequestLine(window[0].entry->line), "warm"));
    for (const PlanEntry& e : plan) {
      if (e.kind == "rescore" && warm.insert(e.line).second) {
        service.Handle(OrDie(tpiin::ParseRequestLine(e.line), "warm " + e.line));
      }
    }
    for (const WindowRequest& w : window) {
      const PlanEntry* e = w.entry;
      Tracer::Span request(&tracer, "bench", "replay." + e->kind);
      tpiin::Request parsed;
      {
        Tracer::Span s(&tracer, "serve", "serve.parse");
        tpiin::Result<tpiin::Request> r = tpiin::ParseRequestLine(e->line);
        parse_us.push_back(s.Stop() * 1e6);
        parsed = OrDie(std::move(r), "replay parse " + e->line);
      }
      tpiin::Response response;
      {
        Tracer::Span s(&tracer, "serve", "serve.evaluate");
        response = service.Handle(parsed);
        eval_us.push_back(s.Stop() * 1e6);
      }
      std::string wire;
      {
        Tracer::Span s(&tracer, "serve", "serve.serialize");
        wire = tpiin::SerializeResponse(response);
        ser_us.push_back(s.Stop() * 1e6);
      }
      request.Stop();
      kinds.push_back(e->kind);
      if (response.status != e->status ||
          Hex(Digest(response.payload)) != e->digest) {
        ++replay_failed;
      }
    }
  }
  out.Strs("replay.kind", kinds);
  out.Nums("replay.parse_us", parse_us);
  out.Nums("replay.evaluate_us", eval_us);
  out.Nums("replay.serialize_us", ser_us);
  out.Num("replay.failed", static_cast<double>(replay_failed));

  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    out.Num(layer + ".self_s", seconds);
  }
  if (!tracer.WriteChromeJson(Arg(args, "trace-out"))) Die("write trace");
  return out.WriteTo(Arg(args, "out")) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver shuffle|reference|batch|serve|layers|replay "
                 "--key=value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const auto args = perfbench::ParseArgs(argc, argv, 2);
  if (cmd == "shuffle") return perfbench::ShuffleMain(args);
  if (cmd == "reference") return perfbench::ReferenceMain(args);
  if (cmd == "batch") return perfbench::BatchMain(args);
  if (cmd == "serve") return perfbench::ServeMain(args);
  if (cmd == "layers") return perfbench::LayersMain(args);
  if (cmd == "replay") return perfbench::ReplayMain(args);
  std::fprintf(stderr, "perfbench_driver: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
