#include "graph/frozen.h"

#include "obs/trace.h"

namespace tpiin {

namespace {

// Counting sort of the arcs by one endpoint (`key`): node v's run holds
// its partition-color arcs, then the rest, each class in ascending arc
// id; `other` is the neighbor stored for each slot. Returns the number of
// partition-color arcs.
template <typename KeyFn, typename OtherFn>
ArcId BuildHalf(const ArcList& list, ArcColor influence_color,
                const KeyFn& key, const OtherFn& other, Col<ArcId>& offsets_col,
                Col<ArcId>& influence_end_col, Col<NodeId>& neighbors_col,
                Col<ArcId>& arc_ids_col) {
  const NodeId n = list.num_nodes;
  const ArcId m = list.NumArcs();
  std::vector<ArcId>& offsets = offsets_col.vec();
  std::vector<ArcId>& influence_end = influence_end_col.vec();
  std::vector<NodeId>& neighbors = neighbors_col.vec();
  std::vector<ArcId>& arc_ids = arc_ids_col.vec();
  offsets.assign(n + 1, 0);
  influence_end.assign(n, 0);
  neighbors.resize(m);
  arc_ids.resize(m);

  // Counting pass: total degree into offsets[v + 1], influence degree
  // into influence_end (both turned into absolute positions below).
  ArcId influence_arcs = 0;
  for (const Arc& arc : list.arcs) {
    ++offsets[key(arc) + 1];
    if (arc.color == influence_color) {
      ++influence_end[key(arc)];
      ++influence_arcs;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] += offsets[v];
    influence_end[v] += offsets[v];
  }

  // Placement pass. Two cursors per node: influence arcs fill
  // [offset, influence_end), the rest fills [influence_end, next offset).
  // Walking the arcs in id order keeps each class ascending by id.
  std::vector<ArcId> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<ArcId> trading_cursor(influence_end);
  for (ArcId id = 0; id < m; ++id) {
    const Arc& arc = list.arcs[id];
    ArcId& slot = arc.color == influence_color ? cursor[key(arc)]
                                               : trading_cursor[key(arc)];
    neighbors[slot] = other(arc);
    arc_ids[slot] = id;
    ++slot;
  }
  offsets_col.Seal();
  influence_end_col.Seal();
  neighbors_col.Seal();
  arc_ids_col.Seal();
  return influence_arcs;
}

NodeId SrcOf(const Arc& arc) { return arc.src; }
NodeId DstOf(const Arc& arc) { return arc.dst; }

}  // namespace

FrozenGraph::FrozenGraph(const ArcList& arcs, ArcColor influence_color)
    : num_nodes_(arcs.num_nodes),
      num_arcs_(arcs.NumArcs()),
      influence_color_(influence_color) {
  TPIIN_SPAN("freeze");
  num_influence_arcs_ =
      BuildHalf(arcs, influence_color_, SrcOf, DstOf, out_offsets_,
                out_influence_end_, out_targets_, out_arc_ids_);
  BuildHalf(arcs, influence_color_, DstOf, SrcOf, in_offsets_,
            in_influence_end_, in_sources_, in_arc_ids_);
}

FrozenGraph::Parts FrozenGraph::parts() const {
  return Parts{
      out_offsets_.span(),  out_influence_end_.span(), out_targets_.span(),
      out_arc_ids_.span(),  in_offsets_.span(),        in_influence_end_.span(),
      in_sources_.span(),   in_arc_ids_.span(),
  };
}

FrozenGraph FrozenGraph::FromParts(NodeId num_nodes, ArcId num_arcs,
                                   ArcId num_influence_arcs,
                                   ArcColor influence_color,
                                   const Parts& parts) {
  FrozenGraph graph;
  graph.num_nodes_ = num_nodes;
  graph.num_arcs_ = num_arcs;
  graph.num_influence_arcs_ = num_influence_arcs;
  graph.influence_color_ = influence_color;
  graph.out_offsets_.BindView(parts.out_offsets.data(),
                              parts.out_offsets.size());
  graph.out_influence_end_.BindView(parts.out_influence_end.data(),
                                    parts.out_influence_end.size());
  graph.out_targets_.BindView(parts.out_targets.data(),
                              parts.out_targets.size());
  graph.out_arc_ids_.BindView(parts.out_arc_ids.data(),
                              parts.out_arc_ids.size());
  graph.in_offsets_.BindView(parts.in_offsets.data(),
                             parts.in_offsets.size());
  graph.in_influence_end_.BindView(parts.in_influence_end.data(),
                                   parts.in_influence_end.size());
  graph.in_sources_.BindView(parts.in_sources.data(),
                             parts.in_sources.size());
  graph.in_arc_ids_.BindView(parts.in_arc_ids.data(),
                             parts.in_arc_ids.size());
  return graph;
}

}  // namespace tpiin
