#ifndef TPIIN_GRAPH_SCC_H_
#define TPIIN_GRAPH_SCC_H_

#include <vector>

#include "graph/frozen.h"
#include "graph/types.h"

namespace tpiin {

/// Result of a strongly-connected-component decomposition.
struct SccResult {
  /// Component id per node, in [0, num_components). Component ids are
  /// emitted in reverse topological order of the condensation (Tarjan's
  /// property): if u's component has an arc to v's component then
  /// component_of[u] > component_of[v].
  std::vector<NodeId> component_of;
  NodeId num_components = 0;

  /// Node lists per component (members[c] holds the nodes of component c).
  std::vector<std::vector<NodeId>> members;

  /// Ids of components with more than one node, or with a self-loop arc
  /// in the walked arc class. These are the "strongly connected subgraphs"
  /// (SCS) the paper contracts into Company syndicates.
  std::vector<NodeId> nontrivial_components;
};

/// Iterative Tarjan SCC over the arc class `arc_class`. O(V + E);
/// recursion-free so million-node provinces cannot overflow the stack.
/// Roots are tried in ascending node id and each node's arcs in span
/// order, so the component numbering is a pure function of the CSR.
SccResult StronglyConnectedComponents(
    const FrozenGraph& graph,
    FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_SCC_H_
