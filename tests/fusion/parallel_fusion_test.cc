// Fusion is serial, but callers run it concurrently: shard builds and
// tools fuse several datasets at once in one process, which shares the
// metrics registry, the tracer and the failpoint table. GetParam()
// concurrent BuildTpiin calls on one dataset (0 = one per hardware
// thread) must each give the TPIIN — node ids, labels, membership lists,
// arc ids, colors, weights and the build statistics — of the call made
// on the test thread ("serial").

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "common/thread_pool.h"
#include "fusion/pipeline.h"

namespace tpiin {
namespace {

void ExpectTpiinEqual(const Tpiin& expected, const Tpiin& actual) {
  ASSERT_EQ(actual.NumNodes(), expected.NumNodes());
  ASSERT_EQ(actual.NumArcs(), expected.NumArcs());
  EXPECT_EQ(actual.num_influence_arcs(), expected.num_influence_arcs());
  EXPECT_EQ(actual.ToEdgeList(), expected.ToEdgeList());
  for (NodeId v = 0; v < expected.NumNodes(); ++v) {
    const TpiinNode e = expected.node(v);
    const TpiinNode a = actual.node(v);
    EXPECT_EQ(a.color, e.color) << "node " << v;
    EXPECT_EQ(a.label, e.label) << "node " << v;
    EXPECT_TRUE(std::ranges::equal(a.person_members, e.person_members))
        << "node " << v;
    EXPECT_TRUE(std::ranges::equal(a.company_members, e.company_members))
        << "node " << v;
  }
  for (ArcId id = 0; id < expected.NumArcs(); ++id) {
    EXPECT_EQ(actual.ArcWeight(id), expected.ArcWeight(id))
        << "arc " << id;
  }
}

void ExpectStatsEqual(const FusionStats& expected,
                      const FusionStats& actual) {
  EXPECT_EQ(actual.g1_nodes, expected.g1_nodes);
  EXPECT_EQ(actual.g1_edges, expected.g1_edges);
  EXPECT_EQ(actual.person_syndicates, expected.person_syndicates);
  EXPECT_EQ(actual.persons_in_syndicates,
            expected.persons_in_syndicates);
  EXPECT_EQ(actual.influence_arcs, expected.influence_arcs);
  EXPECT_EQ(actual.investment_arcs, expected.investment_arcs);
  EXPECT_EQ(actual.investment_arcs_intra_scc,
            expected.investment_arcs_intra_scc);
  EXPECT_EQ(actual.company_syndicates, expected.company_syndicates);
  EXPECT_EQ(actual.companies_in_syndicates,
            expected.companies_in_syndicates);
  EXPECT_EQ(actual.antecedent_nodes, expected.antecedent_nodes);
  EXPECT_EQ(actual.antecedent_arcs, expected.antecedent_arcs);
  EXPECT_EQ(actual.trading_arcs, expected.trading_arcs);
  EXPECT_EQ(actual.intra_syndicate_trades,
            expected.intra_syndicate_trades);
}

// Fuses `dataset` on the test thread and from `requested` pool threads
// at once, and requires every concurrent result to equal the serial one.
void ExpectConcurrentFusionIdentical(const RawDataset& dataset,
                                     uint32_t requested) {
  auto serial = BuildTpiin(dataset);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  const uint32_t callers = ResolveThreadCount(requested);
  std::vector<std::optional<Result<FusionOutput>>> concurrent(callers);
  ThreadPool::Global().ParallelFor(callers, callers, [&](size_t i) {
    concurrent[i].emplace(BuildTpiin(dataset));
  });
  for (std::optional<Result<FusionOutput>>& result : concurrent) {
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->ok()) << result->status().ToString();
    ExpectTpiinEqual(serial->tpiin, (*result)->tpiin);
    ExpectStatsEqual(serial->stats, (*result)->stats);
  }
}

class ParallelFusionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelFusionTest, WorkedExampleIsIdentical) {
  ExpectConcurrentFusionIdentical(BuildWorkedExampleDataset(), GetParam());
}

TEST_P(ParallelFusionTest, RandomProvincesAreIdentical) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    ProvinceConfig config = SmallProvinceConfig(150, seed);
    config.trading_probability = 0.02;
    auto province = GenerateProvince(config);
    ASSERT_TRUE(province.ok());
    ExpectConcurrentFusionIdentical(province->dataset, GetParam());
  }
}

TEST_P(ParallelFusionTest, AboveParallelThresholdProvinceIsIdentical) {
  // Sized so the fused graph has more than 2^13 nodes and 2^14 arcs,
  // the scale the removed parallel fusion drivers were built for.
  ProvinceConfig config = SmallProvinceConfig(6000, 3);
  config.trading_probability = 0.001;
  auto province = GenerateProvince(config);
  ASSERT_TRUE(province.ok());
  ExpectConcurrentFusionIdentical(province->dataset, GetParam());
}

// 0 = one caller per hardware thread.
INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelFusionTest,
                         ::testing::Values(0u, 2u, 4u, 8u));

TEST(ParallelFusionTest, InvalidDatasetStillRejected) {
  RawDataset dataset = BuildWorkedExampleDataset();
  // Out-of-range company in a trade record must fail identically for
  // every concurrent caller, and as it does for a single call.
  std::vector<TradeRecord> trades = dataset.trades();
  trades.push_back(TradeRecord{9999, 0});
  dataset.SetTrades(std::move(trades));
  auto serial = BuildTpiin(dataset);
  ASSERT_FALSE(serial.ok());

  constexpr size_t kCallers = 8;
  std::vector<std::optional<Result<FusionOutput>>> concurrent(kCallers);
  ThreadPool::Global().ParallelFor(kCallers, kCallers, [&](size_t i) {
    concurrent[i].emplace(BuildTpiin(dataset));
  });
  for (std::optional<Result<FusionOutput>>& result : concurrent) {
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->ok());
    EXPECT_EQ(result->status().ToString(), serial.status().ToString());
  }
}

}  // namespace
}  // namespace tpiin
