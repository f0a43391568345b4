// Determinism gate for the observability layer (ISSUE acceptance
// criterion): fuse + detect output must be bit-identical with tracing
// enabled and disabled, at 1 and 8 threads. Spans and counters only
// read clocks and append to buffers, so nothing here may perturb the
// pipeline's scheduling-visible state.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/scoring.h"
#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"
#include "obs/trace.h"

namespace tpiin {
namespace {

struct PipelineRun {
  std::vector<std::array<uint32_t, 3>> edge_list;
  DetectionResult detection;
  std::vector<double> scores;
  size_t trace_events = 0;
};

PipelineRun RunPipeline(const RawDataset& dataset, uint32_t num_threads,
                        bool traced) {
  TraceRecorder recorder;
  if (traced) recorder.Install();

  auto fused = BuildTpiin(dataset);
  EXPECT_TRUE(fused.ok());

  DetectorOptions detect;
  detect.num_threads = num_threads;
  auto detection = DetectSuspiciousGroups(fused->tpiin, detect);
  EXPECT_TRUE(detection.ok());

  ScoringResult scoring = ScoreDetection(fused->tpiin, *detection);

  if (traced) TraceRecorder::Uninstall();

  PipelineRun run;
  run.edge_list = fused->tpiin.ToEdgeList();
  run.detection = std::move(*detection);
  run.scores = std::move(scoring.group_scores);
  run.trace_events = recorder.NumEvents();
  return run;
}

void ExpectRunsIdentical(const PipelineRun& expected,
                         const PipelineRun& actual) {
  EXPECT_EQ(actual.edge_list, expected.edge_list);

  const DetectionResult& ed = expected.detection;
  const DetectionResult& ad = actual.detection;
  EXPECT_EQ(ad.num_simple, ed.num_simple);
  EXPECT_EQ(ad.num_complex, ed.num_complex);
  EXPECT_EQ(ad.num_cycle_groups, ed.num_cycle_groups);
  EXPECT_EQ(ad.num_trails, ed.num_trails);
  EXPECT_EQ(ad.suspicious_trades, ed.suspicious_trades);
  ASSERT_EQ(ad.groups.size(), ed.groups.size());
  for (size_t i = 0; i < ed.groups.size(); ++i) {
    EXPECT_EQ(ad.groups[i].members, ed.groups[i].members) << "group " << i;
  }

  // Per-subTPIIN shapes (not timings) are part of the deterministic
  // surface too: the profile rows must agree in every non-time field.
  ASSERT_EQ(ad.sub_profiles.size(), ed.sub_profiles.size());
  for (size_t i = 0; i < ed.sub_profiles.size(); ++i) {
    EXPECT_EQ(ad.sub_profiles[i].index, ed.sub_profiles[i].index);
    EXPECT_EQ(ad.sub_profiles[i].num_nodes, ed.sub_profiles[i].num_nodes);
    EXPECT_EQ(ad.sub_profiles[i].num_arcs, ed.sub_profiles[i].num_arcs);
    EXPECT_EQ(ad.sub_profiles[i].num_trails,
              ed.sub_profiles[i].num_trails);
    EXPECT_EQ(ad.sub_profiles[i].num_groups,
              ed.sub_profiles[i].num_groups);
  }

  // Scores exactly equal: same floating-point ops in the same order.
  ASSERT_EQ(actual.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(actual.scores[i], expected.scores[i]) << "score " << i;
  }
}

TEST(ObsDeterminismTest, TracingOnOffAtOneAndEightThreads) {
  RawDataset dataset = BuildWorkedExampleDataset();

  PipelineRun baseline = RunPipeline(dataset, 1, /*traced=*/false);
  EXPECT_EQ(baseline.trace_events, 0u);

  for (uint32_t threads : {1u, 8u}) {
    for (bool traced : {false, true}) {
      PipelineRun run = RunPipeline(dataset, threads, traced);
      ExpectRunsIdentical(baseline, run);
      if (traced) {
        EXPECT_GT(run.trace_events, 0u)
            << "tracing enabled but no spans recorded";
      } else {
        EXPECT_EQ(run.trace_events, 0u);
      }
    }
  }
}

TEST(ObsDeterminismTest, SeededProvinceTracedMatchesUntraced) {
  ProvinceConfig config = SmallProvinceConfig(300, 23);
  config.trading_probability = 0.02;
  config.num_investment_cycles = 2;
  auto province = GenerateProvince(config);
  ASSERT_TRUE(province.ok());

  PipelineRun untraced = RunPipeline(province->dataset, 8, false);
  PipelineRun traced = RunPipeline(province->dataset, 8, true);
  ExpectRunsIdentical(untraced, traced);
  EXPECT_GT(traced.trace_events, 0u);
}

TEST(ObsDeterminismTest, TraceJsonIsReproducibleInShape) {
  // Two traced single-threaded runs record the same spans in the same
  // order (timestamps differ; names and nesting do not).
  RawDataset dataset = BuildWorkedExampleDataset();

  auto span_names = [&]() {
    TraceRecorder recorder;
    recorder.Install();
    auto fused = BuildTpiin(dataset);
    EXPECT_TRUE(fused.ok());
    auto detection = DetectSuspiciousGroups(fused->tpiin);
    EXPECT_TRUE(detection.ok());
    TraceRecorder::Uninstall();
    std::vector<std::string> names;
    for (const TraceRecorder::SpanEvent& e : recorder.MergedEvents()) {
      names.push_back(e.name);
    }
    return names;
  };

  std::vector<std::string> first = span_names();
  std::vector<std::string> second = span_names();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tpiin
