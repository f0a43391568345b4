#include "graph/traversal.h"

#include <gtest/gtest.h>

namespace tpiin {
namespace {

TEST(ReachableFromTest, StartIsAlwaysReachable) {
  const FrozenGraph g(ArcList{3, {}});
  std::vector<bool> reach = ReachableFrom(g, 1);
  EXPECT_FALSE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(ReachableFromTest, FollowsDirection) {
  const FrozenGraph g(ArcList{4, {{0, 1, 0}, {1, 2, 0}, {3, 2, 0}}});
  std::vector<bool> reach = ReachableFrom(g, 0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);  // Arc points into 2, not out of it.
}

TEST(ReachableFromTest, HandlesCycles) {
  const FrozenGraph g(ArcList{3, {{0, 1, 0}, {1, 0, 0}, {1, 2, 0}}});
  std::vector<bool> reach = ReachableFrom(g, 0);
  EXPECT_TRUE(reach[0] && reach[1] && reach[2]);
}

TEST(ReachableFromTest, FilterBlocksArcs) {
  const FrozenGraph g(ArcList{3, {{0, 1, 1}, {1, 2, 2}}});
  std::vector<bool> reach = ReachableFrom(g, 0, FrozenArcClass::kInfluence);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(FindSubgraphsDfsTest, MembersSortedAndComplete) {
  const FrozenGraph g(ArcList{5, {{4, 2, 0}, {2, 0, 0}}});
  WccResult wcc = FindSubgraphsDfs(g);
  EXPECT_EQ(wcc.num_components, 3u);
  std::vector<NodeId> big = wcc.members[wcc.component_of[0]];
  EXPECT_EQ(big, (std::vector<NodeId>{0, 2, 4}));
}

}  // namespace
}  // namespace tpiin
