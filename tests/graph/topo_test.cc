#include "graph/topo.h"

#include <gtest/gtest.h>

namespace tpiin {
namespace {

TEST(TopoTest, EmptyAndSingleton) {
  const FrozenGraph empty(ArcList{0, {}});
  EXPECT_TRUE(TopologicalSort(empty)->empty());
  const FrozenGraph one(ArcList{1, {}});
  EXPECT_EQ(TopologicalSort(one)->size(), 1u);
}

TEST(TopoTest, OrderRespectsArcs) {
  const ArcList arcs{5, {{0, 2, 0}, {2, 4, 0}, {1, 2, 0}, {3, 4, 0}}};
  auto order = TopologicalSort(FrozenGraph(arcs));
  ASSERT_TRUE(order.ok());
  std::vector<size_t> pos(5);
  for (size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (const Arc& arc : arcs.arcs) {
    EXPECT_LT(pos[arc.src], pos[arc.dst]);
  }
}

TEST(TopoTest, CycleIsFailedPrecondition) {
  const FrozenGraph g(ArcList{3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}});
  EXPECT_TRUE(TopologicalSort(g).status().IsFailedPrecondition());
  EXPECT_FALSE(IsDag(g));
}

TEST(TopoTest, SelfLoopIsCycle) {
  const FrozenGraph g(ArcList{2, {{0, 0, 0}}});
  EXPECT_FALSE(IsDag(g));
}

TEST(TopoTest, FilterCanRestoreAcyclicity) {
  const FrozenGraph g(ArcList{3, {
      {0, 1, 1},
      {1, 2, 1},
      {2, 0, 9},  // The cycle-closing arc has a different color.
  }});
  EXPECT_FALSE(IsDag(g));
  EXPECT_TRUE(IsDag(g, FrozenArcClass::kInfluence));  // Color 1 only.
}

}  // namespace
}  // namespace tpiin
