// QueryService semantics and the serve byte-identity contract: for the
// same snapshot, the `groups` payload equals the batch `detect --out`
// susGroup.txt bytes and the `explain` payload equals the batch
// `tpiin explain` stdout — cache hot or cold, at 1 and at 8 threads.

#include "serve/service.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"
#include "io/pattern_file.h"
#include "snapshot/snapshot.h"

namespace tpiin {
namespace {

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Request MakeRequest(const std::string& verb,
                    const std::string& company = "") {
  Request req;
  req.verb = verb;
  req.company = company;
  return req;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_serve_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  /// Fuses a small province, snapshots it, and opens the view the
  /// service will answer from.
  void OpenProvinceSnapshot() {
    ProvinceConfig config = SmallProvinceConfig(150, 20170402);
    config.trading_probability = 0.02;
    Result<Province> province = GenerateProvince(config);
    ASSERT_TRUE(province.ok()) << province.status().ToString();
    Result<FusionOutput> fused = BuildTpiin(province->dataset);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    OpenSnapshotOf(fused->tpiin);
  }

  void OpenSnapshotOf(const Tpiin& net) {
    snapshot_path_ = Path("net.snap");
    Status written = WriteSnapshot(net, snapshot_path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
    Result<std::unique_ptr<SnapshotView>> view =
        SnapshotView::Open(snapshot_path_);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    view_ = std::move(*view);
  }

  /// The batch artifact bytes the serve payloads must match.
  std::string BatchSusGroups() {
    std::ostringstream out;
    int code = 0;
    Status status = RunCli({"detect", "--snapshot=" + snapshot_path_,
                            "--out=" + Path("batch")},
                           out, &code);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(code, 0);
    return ReadFileToString(Path("batch") + "/susGroup.txt");
  }

  std::string BatchExplain(const std::string& company) {
    std::ostringstream out;
    Status status = RunCli({"explain", "--snapshot=" + snapshot_path_,
                            "--company=" + company},
                           out);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out.str();
  }

  /// First company label in the network (always a valid explain
  /// target).
  std::string AnyCompanyLabel() {
    for (NodeId v = 0; v < view_->net().NumNodes(); ++v) {
      if (view_->net().node(v).color == NodeColor::kCompany) {
        return std::string(view_->net().Label(v));
      }
    }
    ADD_FAILURE() << "no company node";
    return "";
  }

  std::string AnyPersonLabel() {
    for (NodeId v = 0; v < view_->net().NumNodes(); ++v) {
      if (view_->net().node(v).color == NodeColor::kPerson) {
        return std::string(view_->net().Label(v));
      }
    }
    ADD_FAILURE() << "no person node";
    return "";
  }

  std::unique_ptr<QueryService> MakeService(uint32_t threads,
                                            bool cached) {
    ServiceOptions options;
    options.threads = threads;
    options.cache_entries = cached ? 256 : 0;
    options.bundle_cache_entries = cached ? 4 : 0;
    return std::make_unique<QueryService>(
        view_->net(), view_->header_crc(), options, nullptr);
  }

  std::string dir_;
  std::string snapshot_path_;
  std::unique_ptr<SnapshotView> view_;
};

TEST_F(ServiceTest, GroupsByteIdenticalToBatchAtAnyThreadsCacheHotOrCold) {
  OpenProvinceSnapshot();
  const std::string batch = BatchSusGroups();
  ASSERT_FALSE(batch.empty()) << "province produced no suspicious groups";

  for (uint32_t threads : {1u, 8u}) {
    for (bool cached : {false, true}) {
      std::unique_ptr<QueryService> service = MakeService(threads, cached);
      // First call is always cold; the second exercises the hit path
      // when caching is on and the recompute path when it is off.
      Response first = service->Handle(MakeRequest("groups"));
      Response second = service->Handle(MakeRequest("groups"));
      ASSERT_EQ(first.status, "ok")
          << "threads=" << threads << " cached=" << cached << ": "
          << first.error;
      EXPECT_EQ(first.payload, batch)
          << "threads=" << threads << " cached=" << cached;
      EXPECT_EQ(second.payload, batch)
          << "threads=" << threads << " cached=" << cached << " (2nd)";
      EXPECT_EQ(service->bundle_cache().hits(), cached ? 1u : 0u);
    }
  }
}

TEST_F(ServiceTest, ConcurrentColdMissesAreSingleFlighted) {
  OpenProvinceSnapshot();
  const std::string batch = BatchSusGroups();
  ASSERT_FALSE(batch.empty());

  // Activate failpoint hit counting without any firing rule: the
  // core.sub_mine site is evaluated once per subTPIIN per detection
  // run, so its hit count measures how many detections actually ran.
  ASSERT_TRUE(Failpoints::Configure("test.unused:off").ok());

  // Calibrate: one cold request = one detection run's worth of hits.
  uint64_t per_run = 0;
  {
    std::unique_ptr<QueryService> calibration = MakeService(0, true);
    const uint64_t before = Failpoints::HitCount("core.sub_mine");
    Response resp = calibration->Handle(MakeRequest("groups"));
    ASSERT_EQ(resp.status, "ok") << resp.error;
    per_run = Failpoints::HitCount("core.sub_mine") - before;
  }
  if (per_run == 0) {
    Failpoints::Clear();
    GTEST_SKIP() << "failpoint sites compiled out (-DTPIIN_FAILPOINTS=OFF)";
  }

  // Eight simultaneous cold requests for the same key: single-flight
  // makes the first the leader and parks the rest on its flight, so
  // exactly one detection runs (without coalescing this would be up to
  // eight full runs before one result wins the cache Put).
  constexpr int kThreads = 8;
  std::unique_ptr<QueryService> service = MakeService(0, true);
  const uint64_t before = Failpoints::HitCount("core.sub_mine");
  std::atomic<bool> go{false};
  std::vector<Response> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      responses[i] = service->Handle(MakeRequest("groups"));
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const uint64_t mined = Failpoints::HitCount("core.sub_mine") - before;
  Failpoints::Clear();

  EXPECT_EQ(mined, per_run) << "concurrent cold misses were not coalesced";
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(responses[i].status, "ok") << responses[i].error;
    EXPECT_EQ(responses[i].payload, batch) << "thread " << i;
  }
  EXPECT_EQ(service->bundle_cache().size(), 1u);
}

TEST_F(ServiceTest, ExplainByteIdenticalToBatch) {
  OpenProvinceSnapshot();
  const std::string company = AnyCompanyLabel();
  const std::string batch = BatchExplain(company);
  ASSERT_FALSE(batch.empty());

  for (uint32_t threads : {1u, 8u}) {
    for (bool cached : {false, true}) {
      std::unique_ptr<QueryService> service = MakeService(threads, cached);
      Response cold = service->Handle(MakeRequest("explain", company));
      Response warm = service->Handle(MakeRequest("explain", company));
      ASSERT_EQ(cold.status, "ok") << cold.error;
      EXPECT_EQ(cold.payload, batch)
          << "threads=" << threads << " cached=" << cached;
      EXPECT_EQ(warm.payload, batch)
          << "threads=" << threads << " cached=" << cached << " (2nd)";
    }
  }
}

TEST_F(ServiceTest, GroupsCompanyFilterIsSubsequenceOfFullPayload) {
  OpenSnapshotOf(BuildWorkedExampleTpiin());
  std::unique_ptr<QueryService> service = MakeService(1, true);

  Response all = service->Handle(MakeRequest("groups"));
  ASSERT_EQ(all.status, "ok") << all.error;
  // The worked example yields the paper's three groups; C5 belongs to
  // two of them, C4 to none.
  Response c5 = service->Handle(MakeRequest("groups", "C5"));
  ASSERT_EQ(c5.status, "ok") << c5.error;
  EXPECT_NE(all.payload, c5.payload);
  EXPECT_FALSE(c5.payload.empty());
  // Every filtered line appears verbatim in the full payload.
  std::istringstream lines(c5.payload);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_NE(all.payload.find(line), std::string::npos) << line;
  }

  Response c4 = service->Handle(MakeRequest("groups", "C4"));
  ASSERT_EQ(c4.status, "ok") << c4.error;
  EXPECT_TRUE(c4.payload.empty());
}

TEST_F(ServiceTest, ErrorTextsMatchBatchCli) {
  OpenProvinceSnapshot();
  std::unique_ptr<QueryService> service = MakeService(1, true);

  Response missing = service->Handle(MakeRequest("explain", "NOPE"));
  EXPECT_EQ(missing.status, "error");
  EXPECT_NE(missing.error.find("no node labeled NOPE"), std::string::npos)
      << missing.error;

  Response person =
      service->Handle(MakeRequest("explain", AnyPersonLabel()));
  EXPECT_EQ(person.status, "error");
  EXPECT_NE(person.error.find("is a Person node"), std::string::npos)
      << person.error;

  Response no_company = service->Handle(MakeRequest("explain"));
  EXPECT_EQ(no_company.status, "error");

  Response unknown = service->Handle(MakeRequest("frobnicate"));
  EXPECT_EQ(unknown.status, "error");
  EXPECT_EQ(unknown.verb, "frobnicate");
  EXPECT_EQ(unknown.error,
            "InvalidArgument: unknown verb: frobnicate (expected groups, "
            "explain, rescore, stats, slow, metrics, healthz, reload)");
}

TEST_F(ServiceTest, RescoreCachedAndUncachedAreByteIdentical) {
  OpenSnapshotOf(BuildWorkedExampleTpiin());

  Request rescore = MakeRequest("rescore");
  rescore.sub = 0;

  std::unique_ptr<QueryService> cold_service = MakeService(1, false);
  Response cold1 = cold_service->Handle(rescore);
  Response cold2 = cold_service->Handle(rescore);
  ASSERT_EQ(cold1.status, "ok") << cold1.error;
  EXPECT_EQ(cold1.payload, cold2.payload);
  EXPECT_EQ(cold_service->sub_cache().hits(), 0u);

  std::unique_ptr<QueryService> hot_service = MakeService(1, true);
  Response miss = hot_service->Handle(rescore);
  Response hit = hot_service->Handle(rescore);
  ASSERT_EQ(miss.status, "ok") << miss.error;
  EXPECT_EQ(hot_service->sub_cache().hits(), 1u);
  EXPECT_EQ(hot_service->sub_cache().misses(), 1u);

  EXPECT_EQ(miss.payload, cold1.payload);
  EXPECT_EQ(hit.payload, cold1.payload);
  // The worked example's single subTPIIN mines to the paper's three
  // groups.
  EXPECT_NE(miss.payload.find("subTPIIN 0 of 1"), std::string::npos)
      << miss.payload;
  EXPECT_NE(miss.payload.find("trails: 15"), std::string::npos)
      << miss.payload;
}

TEST_F(ServiceTest, RescoreRangeAndArgumentErrors) {
  OpenSnapshotOf(BuildWorkedExampleTpiin());
  std::unique_ptr<QueryService> service = MakeService(1, true);

  Request out_of_range = MakeRequest("rescore");
  out_of_range.sub = 99;
  Response resp = service->Handle(out_of_range);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("no subTPIIN 99"), std::string::npos)
      << resp.error;

  Response no_sub = service->Handle(MakeRequest("rescore"));
  EXPECT_EQ(no_sub.status, "error");
  EXPECT_NE(no_sub.error.find("requires sub"), std::string::npos);
}

TEST_F(ServiceTest, StructuralCapDegradesDeterministically) {
  OpenSnapshotOf(BuildWorkedExampleTpiin());
  std::unique_ptr<QueryService> service = MakeService(1, true);

  // Cap below the single subTPIIN's size: every verb that needs the
  // detection degrades, and (being deterministic) the degraded bundle
  // IS cached — unlike deadline truncation.
  Request capped = MakeRequest("groups");
  capped.max_sub_nodes = 2;
  Response first = service->Handle(capped);
  Response second = service->Handle(capped);
  EXPECT_EQ(first.status, "degraded");
  EXPECT_TRUE(first.payload.empty());
  EXPECT_EQ(second.status, "degraded");
  EXPECT_EQ(service->bundle_cache().hits(), 1u);

  Request capped_rescore = MakeRequest("rescore");
  capped_rescore.sub = 0;
  capped_rescore.max_sub_nodes = 2;
  Response rescore = service->Handle(capped_rescore);
  EXPECT_EQ(rescore.status, "degraded");
  EXPECT_NE(rescore.payload.find("skipped (over budget cap)"),
            std::string::npos)
      << rescore.payload;
}

TEST_F(ServiceTest, DistinctBudgetsAreDistinctBundleCacheEntries) {
  OpenSnapshotOf(BuildWorkedExampleTpiin());
  std::unique_ptr<QueryService> service = MakeService(1, true);

  Response plain = service->Handle(MakeRequest("groups"));
  ASSERT_EQ(plain.status, "ok") << plain.error;

  Request roomy = MakeRequest("groups");
  roomy.max_sub_nodes = 1000;  // Non-binding, but a different key.
  Response roomy_resp = service->Handle(roomy);
  ASSERT_EQ(roomy_resp.status, "ok") << roomy_resp.error;

  EXPECT_EQ(service->bundle_cache().size(), 2u);
  EXPECT_EQ(service->bundle_cache().misses(), 2u);
  // Same answer either way — the cap did not bind.
  EXPECT_EQ(plain.payload, roomy_resp.payload);
}

TEST_F(ServiceTest, WhatIfCompanyQueryLeavesTheExportUnrendered) {
  OpenProvinceSnapshot();
  std::unique_ptr<QueryService> service = MakeService(1, true);
  const std::string company = AnyCompanyLabel();

  // A capped (non-binding) what-if on a fresh key builds a bundle, but
  // a filtered answer never needs the full export.
  Request whatif = MakeRequest("groups", company);
  whatif.max_sub_nodes = 1 << 20;
  Response filtered = service->Handle(whatif);
  ASSERT_EQ(filtered.status, "ok") << filtered.error;
  EXPECT_EQ(filtered.escaped_payload, nullptr);
  std::shared_ptr<const DetectionBundle> bundle = service->PeekBundle(whatif);
  ASSERT_NE(bundle, nullptr);
  EXPECT_FALSE(bundle->export_rendered());

  // The next full `groups` on that key renders it, exactly as batch
  // does, and ships the escaped form alongside the raw text.
  Request full = MakeRequest("groups");
  full.max_sub_nodes = whatif.max_sub_nodes;
  Response exported = service->Handle(full);
  ASSERT_EQ(exported.status, "ok") << exported.error;
  EXPECT_TRUE(bundle->export_rendered());
  EXPECT_EQ(service->PeekBundle(full), bundle);
  EXPECT_EQ(exported.payload,
            RenderSuspiciousGroups(view_->net(), bundle->detection.groups));
  EXPECT_EQ(exported.payload, BatchSusGroups());
  ASSERT_NE(exported.escaped_payload, nullptr);
  EXPECT_EQ(*exported.escaped_payload, JsonEscape(exported.payload));
}

TEST_F(ServiceTest, WhatIfGroupsLeavesTheScoringUncomputed) {
  OpenProvinceSnapshot();
  std::unique_ptr<QueryService> service = MakeService(1, true);
  const std::string company = AnyCompanyLabel();

  // The default-budget bundle, which plain `explain`s read, is scored
  // when it is built, so no drill request pays for the scoring.
  ASSERT_EQ(service->Handle(MakeRequest("groups", company)).status, "ok");
  std::shared_ptr<const DetectionBundle> plain =
      service->PeekBundle(MakeRequest("groups"));
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->scoring_computed());

  // A what-if `groups` builds a fresh bundle; only `explain` scores.
  Request whatif = MakeRequest("groups", company);
  whatif.max_sub_nodes = 1 << 20;
  ASSERT_EQ(service->Handle(whatif).status, "ok");
  std::shared_ptr<const DetectionBundle> bundle = service->PeekBundle(whatif);
  ASSERT_NE(bundle, nullptr);
  EXPECT_FALSE(bundle->scoring_computed());

  // The first `explain` on that key scores it, and answers exactly as
  // the batch `tpiin explain` does.
  Request explain = MakeRequest("explain", company);
  explain.max_sub_nodes = whatif.max_sub_nodes;
  Response answer = service->Handle(explain);
  ASSERT_EQ(answer.status, "ok") << answer.error;
  EXPECT_EQ(service->PeekBundle(explain), bundle);
  EXPECT_TRUE(bundle->scoring_computed());
  EXPECT_EQ(answer.payload, BatchExplain(company));
}

TEST_F(ServiceTest, ConcurrentFirstFullGroupsRenderTheExportOnce) {
  OpenProvinceSnapshot();
  std::unique_ptr<QueryService> service = MakeService(0, true);
  const std::string company = AnyCompanyLabel();
  // Warm the bundle without its export, so every thread below races to
  // be the first full `groups` on a cached bundle.
  ASSERT_EQ(service->Handle(MakeRequest("groups", company)).status, "ok");
  std::shared_ptr<const DetectionBundle> bundle =
      service->PeekBundle(MakeRequest("groups"));
  ASSERT_NE(bundle, nullptr);
  ASSERT_FALSE(bundle->export_rendered());

  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<Response> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      responses[i] = service->Handle(MakeRequest("groups"));
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  // One render: every thread was handed the one shared escaped string
  // the bundle keeps.
  const DetectionBundle::GroupsExport& exported =
      bundle->Export(view_->net());
  ASSERT_NE(exported.escaped, nullptr);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(responses[i].status, "ok") << responses[i].error;
    EXPECT_EQ(responses[i].escaped_payload.get(), exported.escaped.get())
        << "thread " << i;
    EXPECT_EQ(responses[i].payload, exported.text) << "thread " << i;
  }
}

TEST_F(ServiceTest, DaemonVerbsAreLeftToTheDaemon) {
  OpenSnapshotOf(BuildWorkedExampleTpiin());
  std::unique_ptr<QueryService> service = MakeService(1, true);
  // The service answers the table's service-side verbs; a daemon-side
  // verb (healthz, stats, reload, ...) is an error naming the verb, and
  // never the unknown-verb error: it is in the table.
  for (const ServeVerb& verb : kServeVerbs) {
    SCOPED_TRACE(std::string(verb.name));
    Request request = MakeRequest(std::string(verb.name));
    request.sub = 0;
    Response resp = service->Handle(request);
    EXPECT_EQ(resp.verb, verb.name);
    EXPECT_EQ(resp.error.find("unknown verb"), std::string::npos)
        << resp.error;
    const bool left_to_daemon =
        resp.error.find("answered by the serve daemon") != std::string::npos;
    EXPECT_EQ(left_to_daemon, verb.side == VerbSide::kDaemon) << resp.error;
    if (left_to_daemon) {
      EXPECT_EQ(resp.status, "error");
    }
  }
}

}  // namespace
}  // namespace tpiin
