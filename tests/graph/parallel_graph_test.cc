// The graph drivers are serial, but callers run them concurrently on one
// shared, read-only graph: serve answers what-if queries on connection
// threads over one snapshot, and shard detection mines shards on pool
// threads. These tests call SCC, WCC and UnionArcs from GetParam() pool
// threads at once and require every call to match the one made on the
// test thread ("serial"), and that answer to satisfy the decomposition's
// defining property. The graphs keep the sizes (2^13+ nodes, 2^14+ arcs)
// that once engaged the removed partition-parallel drivers.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/connected.h"
#include "graph/frozen.h"
#include "graph/scc.h"
#include "graph/union_find.h"

namespace tpiin {
namespace {

// Random two-color digraph. Arcs are clustered inside blocks of
// `block` nodes so the graph has many weakly connected partitions of
// varying size, with a sprinkle of long-range arcs to create big ones.
ArcList RandomArcs(uint64_t seed, NodeId n, ArcId m, NodeId block) {
  Rng rng(seed);
  ArcList g{n, {}};
  for (ArcId i = 0; i < m; ++i) {
    NodeId src = static_cast<NodeId>(rng.UniformU64(n));
    NodeId dst;
    if (rng.UniformU64(100) < 95) {
      NodeId base = src - (src % block);
      dst = base + static_cast<NodeId>(rng.UniformU64(block));
      if (dst >= n) dst = n - 1;
    } else {
      dst = static_cast<NodeId>(rng.UniformU64(n));
    }
    g.arcs.push_back(
        Arc{src, dst, static_cast<ArcColor>(rng.UniformU64(2))});
  }
  return g;
}

// Runs `fn` once per caller, `callers` of them at once on the shared
// pool, and returns the results in caller order.
template <typename Fn>
auto CallConcurrently(uint32_t callers, const Fn& fn) {
  std::vector<decltype(fn())> results(callers);
  ThreadPool::Global().ParallelFor(callers, callers,
                                   [&](size_t i) { results[i] = fn(); });
  return results;
}

void ExpectSccEqual(const SccResult& expected, const SccResult& actual) {
  EXPECT_EQ(actual.num_components, expected.num_components);
  EXPECT_EQ(actual.component_of, expected.component_of);
  EXPECT_EQ(actual.members, expected.members);
  EXPECT_EQ(actual.nontrivial_components,
            expected.nontrivial_components);
}

// Tarjan's numbering is a reverse topological order of the
// condensation, and members/component_of describe the same partition.
void ExpectValidScc(const FrozenGraph& graph, FrozenArcClass arc_class,
                    const SccResult& scc) {
  ASSERT_EQ(scc.members.size(), scc.num_components);
  for (NodeId c = 0; c < scc.num_components; ++c) {
    for (NodeId v : scc.members[c]) ASSERT_EQ(scc.component_of[v], c);
  }
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v : graph.OutClass(u, arc_class).nodes) {
      ASSERT_GE(scc.component_of[u], scc.component_of[v])
          << u << " -> " << v;
    }
  }
}

void CheckSccUnderConcurrency(const FrozenGraph& graph,
                              FrozenArcClass arc_class, uint32_t callers) {
  SccResult serial = StronglyConnectedComponents(graph, arc_class);
  ExpectValidScc(graph, arc_class, serial);
  for (const SccResult& concurrent : CallConcurrently(callers, [&] {
         return StronglyConnectedComponents(graph, arc_class);
       })) {
    ExpectSccEqual(serial, concurrent);
  }
}

class ParallelGraphTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelGraphTest, SccMatchesSerialAboveThreshold) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    FrozenGraph frozen(RandomArcs(seed, /*n=*/20000, /*m=*/50000,
                                  /*block=*/64),
                       /*influence_color=*/1);
    CheckSccUnderConcurrency(frozen, FrozenArcClass::kAll, GetParam());
    CheckSccUnderConcurrency(frozen, FrozenArcClass::kInfluence,
                             GetParam());
  }
}

TEST_P(ParallelGraphTest, SccMatchesSerialOnOneBigPartition) {
  // One weak partition: a 10k-node chain closed into big cycles by
  // random back arcs.
  Rng rng(11);
  const NodeId n = 10000;
  ArcList g{n, {}};
  for (NodeId v = 0; v + 1 < n; ++v) g.arcs.push_back(Arc{v, v + 1, 0});
  for (int i = 0; i < 2000; ++i) {
    NodeId src = static_cast<NodeId>(rng.UniformU64(n));
    NodeId dst = static_cast<NodeId>(rng.UniformU64(n));
    g.arcs.push_back(Arc{src, dst, 0});
  }
  CheckSccUnderConcurrency(FrozenGraph(g), FrozenArcClass::kAll,
                           GetParam());
}

TEST_P(ParallelGraphTest, SccMatchesSerialBelowThreshold) {
  CheckSccUnderConcurrency(
      FrozenGraph(RandomArcs(7, /*n=*/500, /*m=*/1500, /*block=*/16)),
      FrozenArcClass::kAll, GetParam());
}

TEST_P(ParallelGraphTest, WccMatchesSerialAboveThreshold) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    FrozenGraph frozen(RandomArcs(100 + seed, /*n=*/20000, /*m=*/40000,
                                  /*block=*/32),
                       /*influence_color=*/1);
    for (FrozenArcClass arc_class :
         {FrozenArcClass::kAll, FrozenArcClass::kInfluence}) {
      WccResult serial = WeaklyConnectedComponents(frozen, arc_class);
      for (NodeId u = 0; u < frozen.NumNodes(); ++u) {
        for (NodeId v : frozen.OutClass(u, arc_class).nodes) {
          ASSERT_EQ(serial.component_of[u], serial.component_of[v]);
        }
      }
      for (const WccResult& concurrent : CallConcurrently(GetParam(), [&] {
             return WeaklyConnectedComponents(frozen, arc_class);
           })) {
        EXPECT_EQ(concurrent.num_components, serial.num_components);
        EXPECT_EQ(concurrent.component_of, serial.component_of);
        EXPECT_EQ(concurrent.members, serial.members);
      }
    }
  }
}

TEST_P(ParallelGraphTest, UnionArcsMatchesSerialAboveThreshold) {
  Rng rng(42);
  const NodeId n = 30000;
  std::vector<Arc> arcs;
  for (int i = 0; i < 70000; ++i) {
    arcs.push_back(Arc{static_cast<NodeId>(rng.UniformU64(n)),
                       static_cast<NodeId>(rng.UniformU64(n)), 0});
  }
  UnionFind serial = UnionArcs(n, arcs);
  const std::vector<NodeId> ids = serial.DenseComponentIds();
  for (const Arc& arc : arcs) ASSERT_EQ(ids[arc.src], ids[arc.dst]);
  for (const std::vector<NodeId>& concurrent :
       CallConcurrently(GetParam(), [&] {
         return UnionArcs(n, arcs).DenseComponentIds();
       })) {
    EXPECT_EQ(concurrent, ids);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelGraphTest,
                         ::testing::Values(2u, 4u, 8u));

}  // namespace
}  // namespace tpiin
