#ifndef TPIIN_GRAPH_TOPO_H_
#define TPIIN_GRAPH_TOPO_H_

#include <vector>

#include "common/result.h"
#include "graph/frozen.h"
#include "graph/types.h"

namespace tpiin {

/// Kahn topological order over one arc class. Returns
/// FailedPrecondition if the arcs of that class close a cycle.
Result<std::vector<NodeId>> TopologicalSort(
    const FrozenGraph& graph,
    FrozenArcClass arc_class = FrozenArcClass::kAll);

/// True iff the arcs of one class are acyclic. Used to verify the
/// antecedent network after SCC contraction (the paper's DAG guarantee).
bool IsDag(const FrozenGraph& graph,
           FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_TOPO_H_
