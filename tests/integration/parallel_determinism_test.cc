// End-to-end determinism gate for the parallel pipeline: dataset →
// fuse → detect → score with detection at num_threads=8 (plus a
// pooled-arena run) must produce exactly the same suspicious groups and
// exactly the same scores as num_threads=1.
// Any scheduling-dependent divergence anywhere in the stack surfaces
// here as a mismatch.

#include <gtest/gtest.h>

#include "core/arena_pool.h"
#include "core/detector.h"
#include "core/scoring.h"
#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"

namespace tpiin {
namespace {

struct PipelineRun {
  Tpiin net;
  DetectionResult detection;
  ScoringResult scoring;
};

PipelineRun RunPipeline(const RawDataset& dataset, uint32_t num_threads,
                        ArenaPool* arena_pool = nullptr) {
  auto fused = BuildTpiin(dataset);
  EXPECT_TRUE(fused.ok());

  DetectorOptions detect;
  detect.num_threads = num_threads;
  detect.arena_pool = arena_pool;
  auto detection = DetectSuspiciousGroups(fused->tpiin, detect);
  EXPECT_TRUE(detection.ok());

  ScoringResult scoring = ScoreDetection(fused->tpiin, *detection);
  return PipelineRun{std::move(fused->tpiin), std::move(*detection),
                     std::move(scoring)};
}

void ExpectRunsIdentical(const PipelineRun& expected,
                         const PipelineRun& actual) {
  EXPECT_EQ(actual.net.ToEdgeList(), expected.net.ToEdgeList());

  const DetectionResult& ed = expected.detection;
  const DetectionResult& ad = actual.detection;
  EXPECT_EQ(ad.num_simple, ed.num_simple);
  EXPECT_EQ(ad.num_complex, ed.num_complex);
  EXPECT_EQ(ad.num_cycle_groups, ed.num_cycle_groups);
  EXPECT_EQ(ad.num_trails, ed.num_trails);
  EXPECT_EQ(ad.suspicious_trades, ed.suspicious_trades);
  ASSERT_EQ(ad.groups.size(), ed.groups.size());
  for (size_t i = 0; i < ed.groups.size(); ++i) {
    EXPECT_EQ(ad.groups[i].members, ed.groups[i].members)
        << "group " << i;
  }

  // Scores must match exactly (same floating-point operations in the
  // same order), not merely within tolerance.
  const ScoringResult& es = expected.scoring;
  const ScoringResult& as = actual.scoring;
  ASSERT_EQ(as.group_scores.size(), es.group_scores.size());
  for (size_t i = 0; i < es.group_scores.size(); ++i) {
    EXPECT_EQ(as.group_scores[i], es.group_scores[i]) << "group " << i;
  }
  ASSERT_EQ(as.ranked_trades.size(), es.ranked_trades.size());
  for (size_t i = 0; i < es.ranked_trades.size(); ++i) {
    EXPECT_EQ(as.ranked_trades[i].seller, es.ranked_trades[i].seller);
    EXPECT_EQ(as.ranked_trades[i].buyer, es.ranked_trades[i].buyer);
    EXPECT_EQ(as.ranked_trades[i].score, es.ranked_trades[i].score)
        << "trade " << i;
    EXPECT_EQ(as.ranked_trades[i].group_count,
              es.ranked_trades[i].group_count);
  }
}

TEST(ParallelDeterminismTest, WorkedExampleEndToEnd) {
  RawDataset dataset = BuildWorkedExampleDataset();
  PipelineRun serial = RunPipeline(dataset, 1);
  PipelineRun parallel = RunPipeline(dataset, 8);
  ExpectRunsIdentical(serial, parallel);

  ArenaPool pool;
  PipelineRun pooled = RunPipeline(dataset, 8, &pool);
  ExpectRunsIdentical(serial, pooled);
  EXPECT_GT(pool.num_acquires(), 0u);
}

TEST(ParallelDeterminismTest, SeededProvinceEndToEnd) {
  for (uint64_t seed : {5u, 17u}) {
    ProvinceConfig config = SmallProvinceConfig(300, seed);
    config.trading_probability = 0.02;
    config.num_investment_cycles = 2;
    auto province = GenerateProvince(config);
    ASSERT_TRUE(province.ok());

    PipelineRun serial = RunPipeline(province->dataset, 1);
    PipelineRun parallel = RunPipeline(province->dataset, 8);
    ExpectRunsIdentical(serial, parallel);

    // A shared pool reused across seeds: recycled buffers must not
    // leak state between datasets.
    static ArenaPool pool;
    PipelineRun pooled = RunPipeline(province->dataset, 8, &pool);
    ExpectRunsIdentical(serial, pooled);
  }
}

}  // namespace
}  // namespace tpiin
