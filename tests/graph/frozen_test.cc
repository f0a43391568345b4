// FrozenGraph: the immutable CSR view with color-partitioned adjacency.
// The contract under test: every ArcList arc appears exactly once in the
// out CSR and once in the in CSR, each node's run is partitioned with
// the influence class first, and relative order within a color class
// follows arc id order.

#include <vector>

#include <gtest/gtest.h>

#include "graph/frozen.h"

namespace tpiin {
namespace {

constexpr ArcColor kTrading = 0;
constexpr ArcColor kInfluence = 1;

TEST(FrozenGraphTest, EmptyGraph) {
  FrozenGraph fg(ArcList{}, kInfluence);
  EXPECT_EQ(fg.NumNodes(), 0u);
  EXPECT_EQ(fg.NumArcs(), 0u);
  EXPECT_EQ(fg.NumInfluenceArcs(), 0u);
}

TEST(FrozenGraphTest, SingletonNodeHasEmptySpans) {
  FrozenGraph fg(ArcList{1, {}}, kInfluence);
  EXPECT_EQ(fg.NumNodes(), 1u);
  EXPECT_EQ(fg.NumArcs(), 0u);
  EXPECT_TRUE(fg.Out(0).empty());
  EXPECT_TRUE(fg.In(0).empty());
  EXPECT_TRUE(fg.InfluenceOut(0).empty());
  EXPECT_TRUE(fg.TradingOut(0).empty());
  EXPECT_TRUE(fg.InfluenceIn(0).empty());
  EXPECT_TRUE(fg.TradingIn(0).empty());
  EXPECT_EQ(fg.OutDegree(0), 0u);
  EXPECT_EQ(fg.InDegree(0), 0u);
}

TEST(FrozenGraphTest, DefaultConstructedIsEmpty) {
  FrozenGraph fg;
  EXPECT_EQ(fg.NumNodes(), 0u);
  EXPECT_EQ(fg.NumArcs(), 0u);
}

// Arcs inserted with the colors interleaved still come out partitioned:
// influence run first, then trading, each in arc id order.
TEST(FrozenGraphTest, PartitionsInterleavedColors) {
  const ArcId t0 = 0, i0 = 1, t1 = 2, i1 = 3;
  FrozenGraph fg(ArcList{5,
                         {
                             {0, 1, kTrading},    // t0
                             {0, 2, kInfluence},  // i0
                             {0, 3, kTrading},    // t1
                             {0, 4, kInfluence},  // i1
                         }},
                 kInfluence);

  EXPECT_EQ(fg.NumInfluenceArcs(), 2u);
  ASSERT_EQ(fg.OutDegree(0), 4u);
  ASSERT_EQ(fg.InfluenceOutDegree(0), 2u);
  ASSERT_EQ(fg.TradingOutDegree(0), 2u);

  AdjSpan influence = fg.InfluenceOut(0);
  EXPECT_EQ(std::vector<NodeId>(influence.nodes.begin(),
                                influence.nodes.end()),
            (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(std::vector<ArcId>(influence.arcs.begin(), influence.arcs.end()),
            (std::vector<ArcId>{i0, i1}));

  AdjSpan trading = fg.TradingOut(0);
  EXPECT_EQ(std::vector<NodeId>(trading.nodes.begin(), trading.nodes.end()),
            (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(std::vector<ArcId>(trading.arcs.begin(), trading.arcs.end()),
            (std::vector<ArcId>{t0, t1}));

  // The full run is the concatenation: influence first.
  AdjSpan all = fg.Out(0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.nodes[0], 2u);
  EXPECT_EQ(all.nodes[1], 4u);
  EXPECT_EQ(all.nodes[2], 1u);
  EXPECT_EQ(all.nodes[3], 3u);
}

TEST(FrozenGraphTest, PartitionBoundariesAtAllInfluenceAndAllTrading) {
  FrozenGraph fg(ArcList{3,
                         {
                             {0, 1, kInfluence},
                             {0, 2, kInfluence},
                             {1, 2, kTrading},
                         }},
                 kInfluence);

  // Node 0: all influence — trading span empty, at the run's end.
  EXPECT_EQ(fg.InfluenceOutDegree(0), 2u);
  EXPECT_EQ(fg.TradingOutDegree(0), 0u);
  EXPECT_TRUE(fg.TradingOut(0).empty());
  // Node 1: all trading — influence span empty, at the run's start.
  EXPECT_EQ(fg.InfluenceOutDegree(1), 0u);
  EXPECT_EQ(fg.TradingOutDegree(1), 1u);
  EXPECT_TRUE(fg.InfluenceOut(1).empty());
  // Node 2: sink; in-CSR partitioned the same way.
  EXPECT_EQ(fg.InfluenceInDegree(2), 1u);
  EXPECT_EQ(fg.TradingInDegree(2), 1u);
  EXPECT_EQ(fg.InfluenceIn(2).nodes[0], 0u);
  EXPECT_EQ(fg.TradingIn(2).nodes[0], 1u);
}

// Every arc of the list appears exactly once in the out CSR and once in
// the in CSR, with matching endpoints.
TEST(FrozenGraphTest, InOutSymmetry) {
  const ArcList g{8,
                  {
                      {0, 3, kInfluence},
                      {3, 4, kInfluence},
                      {1, 3, kInfluence},
                      {4, 5, kTrading},
                      {3, 5, kTrading},
                      {5, 3, kTrading},  // Back-arc: 3 <-> 5.
                      {2, 2, kInfluence},  // Self-loop.
                  }};
  FrozenGraph fg(g, kInfluence);
  ASSERT_EQ(fg.NumArcs(), g.NumArcs());

  std::vector<uint8_t> seen_out(g.NumArcs(), 0);
  std::vector<uint8_t> seen_in(g.NumArcs(), 0);
  for (NodeId v = 0; v < fg.NumNodes(); ++v) {
    AdjSpan out = fg.Out(v);
    for (size_t i = 0; i < out.size(); ++i) {
      const Arc& arc = g.arcs[out.arcs[i]];
      EXPECT_EQ(arc.src, v);
      EXPECT_EQ(arc.dst, out.nodes[i]);
      EXPECT_EQ(++seen_out[out.arcs[i]], 1);
    }
    AdjSpan in = fg.In(v);
    for (size_t i = 0; i < in.size(); ++i) {
      const Arc& arc = g.arcs[in.arcs[i]];
      EXPECT_EQ(arc.dst, v);
      EXPECT_EQ(arc.src, in.nodes[i]);
      EXPECT_EQ(++seen_in[in.arcs[i]], 1);
    }
    // Degree accessors agree with the spans.
    EXPECT_EQ(fg.OutDegree(v), out.size());
    EXPECT_EQ(fg.InDegree(v), in.size());
    EXPECT_EQ(fg.InfluenceOutDegree(v) + fg.TradingOutDegree(v),
              fg.OutDegree(v));
    EXPECT_EQ(fg.InfluenceInDegree(v) + fg.TradingInDegree(v),
              fg.InDegree(v));
  }
  for (ArcId id = 0; id < g.NumArcs(); ++id) {
    EXPECT_EQ(seen_out[id], 1) << "arc " << id;
    EXPECT_EQ(seen_in[id], 1) << "arc " << id;
  }
}

TEST(FrozenGraphTest, OutClassSelectorsMatchNamedSpans) {
  FrozenGraph fg(ArcList{3, {{0, 1, kInfluence}, {0, 2, kTrading}}},
                 kInfluence);
  EXPECT_EQ(fg.OutClass(0, FrozenArcClass::kAll).size(), 2u);
  EXPECT_EQ(fg.OutClass(0, FrozenArcClass::kInfluence).nodes[0], 1u);
  EXPECT_EQ(fg.OutClass(0, FrozenArcClass::kTrading).nodes[0], 2u);
  EXPECT_EQ(fg.InClass(1, FrozenArcClass::kInfluence).size(), 1u);
  EXPECT_EQ(fg.InClass(1, FrozenArcClass::kTrading).size(), 0u);
  EXPECT_EQ(fg.InClass(2, FrozenArcClass::kTrading).nodes[0], 0u);
}

// Matches ground truth computed straight from the arc list on an
// arbitrary mixed graph: each node's run, out and in, is its arcs in id
// order, stable-partitioned with the influence class first.
TEST(FrozenGraphTest, AgreesWithArcListAdjacency) {
  ArcList g{6, {}};
  for (NodeId v = 0; v < 6; ++v) {
    for (NodeId w = 0; w < 6; ++w) {
      if ((v * 7 + w * 3) % 4 == 0 && v != w) {
        g.arcs.push_back(
            Arc{v, w, (v + w) % 2 == 0 ? kInfluence : kTrading});
      }
    }
  }
  FrozenGraph fg(g, kInfluence);
  for (NodeId v = 0; v < 6; ++v) {
    std::vector<ArcId> out_expected;
    std::vector<ArcId> in_expected;
    for (ArcColor color : {kInfluence, kTrading}) {
      for (ArcId id = 0; id < g.NumArcs(); ++id) {
        if (g.arcs[id].color != color) continue;
        if (g.arcs[id].src == v) out_expected.push_back(id);
        if (g.arcs[id].dst == v) in_expected.push_back(id);
      }
    }
    AdjSpan out = fg.Out(v);
    EXPECT_EQ(std::vector<ArcId>(out.arcs.begin(), out.arcs.end()),
              out_expected);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.nodes[i], g.arcs[out.arcs[i]].dst);
    }
    AdjSpan in = fg.In(v);
    EXPECT_EQ(std::vector<ArcId>(in.arcs.begin(), in.arcs.end()),
              in_expected);
  }
}

}  // namespace
}  // namespace tpiin
