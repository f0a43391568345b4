#include "graph/connected.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/traversal.h"

namespace tpiin {
namespace {

TEST(WccTest, IsolatedNodesAreSingletons) {
  WccResult wcc = WeaklyConnectedComponents(FrozenGraph(ArcList{3, {}}));
  EXPECT_EQ(wcc.num_components, 3u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(wcc.members[wcc.component_of[v]], std::vector<NodeId>{v});
  }
}

TEST(WccTest, DirectionIsIgnored) {
  const FrozenGraph g(ArcList{4, {{1, 0, 0}, {1, 2, 0}}});
  WccResult wcc = WeaklyConnectedComponents(g);
  EXPECT_EQ(wcc.num_components, 2u);  // {0,1,2}, {3}.
  EXPECT_EQ(wcc.component_of[0], wcc.component_of[2]);
  EXPECT_NE(wcc.component_of[0], wcc.component_of[3]);
}

TEST(WccTest, ArcClassSplitsComponents) {
  const FrozenGraph g(ArcList{4, {
      {0, 1, 1},
      {1, 2, 2},  // Not in the influence class walked below.
      {2, 3, 1},
  }});
  WccResult all = WeaklyConnectedComponents(g);
  EXPECT_EQ(all.num_components, 1u);
  WccResult filtered =
      WeaklyConnectedComponents(g, FrozenArcClass::kInfluence);
  EXPECT_EQ(filtered.num_components, 2u);
  EXPECT_EQ(filtered.component_of[0], filtered.component_of[1]);
  EXPECT_EQ(filtered.component_of[2], filtered.component_of[3]);
  EXPECT_NE(filtered.component_of[1], filtered.component_of[2]);
}

TEST(WccTest, MembersAreSortedAndPartitionNodes) {
  const FrozenGraph g(ArcList{6, {{5, 0, 0}, {0, 3, 0}}});
  WccResult wcc = WeaklyConnectedComponents(g);
  size_t total = 0;
  for (const std::vector<NodeId>& members : wcc.members) {
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    total += members.size();
  }
  EXPECT_EQ(total, 6u);
}

// The union-find implementation and the paper's DFS findsubgraph() must
// produce the same partition on random graphs.
class WccEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WccEquivalenceTest, UnionFindMatchesDfs) {
  Rng rng(GetParam());
  const NodeId n = 1 + static_cast<NodeId>(rng.UniformU64(40));
  ArcList arcs{n, {}};
  const uint32_t m = static_cast<uint32_t>(rng.UniformU64(2 * n));
  for (uint32_t i = 0; i < m; ++i) {
    arcs.arcs.push_back(Arc{static_cast<NodeId>(rng.UniformU64(n)),
                            static_cast<NodeId>(rng.UniformU64(n)),
                            static_cast<ArcColor>(rng.UniformU64(2))});
  }
  const FrozenGraph g(arcs);  // Partition color 1: kTrading is color 0.
  WccResult a = WeaklyConnectedComponents(g, FrozenArcClass::kTrading);
  WccResult b = FindSubgraphsDfs(g, FrozenArcClass::kTrading);
  ASSERT_EQ(a.num_components, b.num_components);
  // Same partition up to component relabeling.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      EXPECT_EQ(a.component_of[u] == a.component_of[v],
                b.component_of[u] == b.component_of[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, WccEquivalenceTest,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace tpiin
