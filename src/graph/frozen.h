#ifndef TPIIN_GRAPH_FROZEN_H_
#define TPIIN_GRAPH_FROZEN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/column.h"
#include "graph/types.h"

namespace tpiin {

/// A pair of parallel spans over one node's adjacency run: `nodes[i]` is
/// the neighbor (target for out-adjacency, source for in-adjacency) and
/// `arcs[i]` the arc id of that edge.
struct AdjSpan {
  std::span<const NodeId> nodes;
  std::span<const ArcId> arcs;

  size_t size() const { return nodes.size(); }
  bool empty() const { return nodes.empty(); }
};

/// Which arcs a FrozenGraph-based algorithm walks. The only filters the
/// miner ever needs are "everything", "the partition color" and "the
/// rest", and all three resolve to precomputed span boundaries.
enum class FrozenArcClass : uint8_t { kAll, kInfluence, kTrading };

/// An immutable CSR (compressed sparse row) view of an ArcList with each
/// node's adjacency partitioned by color. It is the only graph
/// representation the algorithms read.
///
/// Layout: one contiguous offsets/targets/arc-ids triple per direction.
/// Within a node's out (and in) run, arcs whose color equals the
/// partition color come first, so the two color classes are addressable
/// as branch-free subspans — hot loops take `InfluenceOut(v)` /
/// `TradingOut(v)` and never load an Arc struct or test ArcColor per
/// edge. Arc ids are the ArcList indices, so results map back without
/// translation.
///
/// The graph layer treats the partition color as opaque; the canonical
/// TPIIN palette (fusion/tpiin.h) puts influence arcs at color 1 and
/// trading arcs at color 0, hence the method names and the default.
///
/// Within each color class of each node's out and in runs, arcs appear
/// in ascending arc id. TPIINs and subTPIINs list all influence arcs
/// before any trading arc, so for them each full out run is in arc-id
/// order.
class FrozenGraph {
 public:
  FrozenGraph() = default;

  /// Builds the CSR view; `influence_color` selects the partition color.
  /// Every endpoint must be < arcs.num_nodes.
  explicit FrozenGraph(const ArcList& arcs, ArcColor influence_color = 1);

  /// The eight CSR arrays as raw spans, in a fixed order shared with
  /// FromParts. The snapshot writer serializes these verbatim; no other
  /// caller should need them.
  struct Parts {
    std::span<const ArcId> out_offsets;        // num_nodes + 1
    std::span<const ArcId> out_influence_end;  // num_nodes
    std::span<const NodeId> out_targets;       // num_arcs
    std::span<const ArcId> out_arc_ids;        // num_arcs
    std::span<const ArcId> in_offsets;         // num_nodes + 1
    std::span<const ArcId> in_influence_end;   // num_nodes
    std::span<const NodeId> in_sources;        // num_arcs
    std::span<const ArcId> in_arc_ids;         // num_arcs
  };
  Parts parts() const;

  /// Rebuilds a FrozenGraph as a zero-copy *view* over externally owned
  /// arrays (the mmap-ed snapshot sections). The arrays must outlive the
  /// returned graph and must satisfy the CSR invariants the building
  /// constructor establishes; the snapshot loader guarantees both via
  /// its checksum and shape validation.
  static FrozenGraph FromParts(NodeId num_nodes, ArcId num_arcs,
                               ArcId num_influence_arcs,
                               ArcColor influence_color, const Parts& parts);

  NodeId NumNodes() const { return num_nodes_; }
  ArcId NumArcs() const { return num_arcs_; }
  ArcColor influence_color() const { return influence_color_; }

  /// Arcs of the partition color, summed over all nodes.
  ArcId NumInfluenceArcs() const { return num_influence_arcs_; }

  // --- Out-adjacency -------------------------------------------------
  AdjSpan Out(NodeId v) const {
    return Slice(out_targets_, out_arc_ids_, out_offsets_[v],
                 out_offsets_[v + 1]);
  }
  AdjSpan InfluenceOut(NodeId v) const {
    return Slice(out_targets_, out_arc_ids_, out_offsets_[v],
                 out_influence_end_[v]);
  }
  AdjSpan TradingOut(NodeId v) const {
    return Slice(out_targets_, out_arc_ids_, out_influence_end_[v],
                 out_offsets_[v + 1]);
  }
  uint32_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  uint32_t InfluenceOutDegree(NodeId v) const {
    return out_influence_end_[v] - out_offsets_[v];
  }
  uint32_t TradingOutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_influence_end_[v];
  }

  // --- In-adjacency --------------------------------------------------
  AdjSpan In(NodeId v) const {
    return Slice(in_sources_, in_arc_ids_, in_offsets_[v],
                 in_offsets_[v + 1]);
  }
  AdjSpan InfluenceIn(NodeId v) const {
    return Slice(in_sources_, in_arc_ids_, in_offsets_[v],
                 in_influence_end_[v]);
  }
  AdjSpan TradingIn(NodeId v) const {
    return Slice(in_sources_, in_arc_ids_, in_influence_end_[v],
                 in_offsets_[v + 1]);
  }
  uint32_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  uint32_t InfluenceInDegree(NodeId v) const {
    return in_influence_end_[v] - in_offsets_[v];
  }
  uint32_t TradingInDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_influence_end_[v];
  }

  /// Class-selected spans for generic algorithms (WCC/SCC/traversal).
  AdjSpan OutClass(NodeId v, FrozenArcClass c) const {
    switch (c) {
      case FrozenArcClass::kInfluence: return InfluenceOut(v);
      case FrozenArcClass::kTrading: return TradingOut(v);
      default: return Out(v);
    }
  }
  AdjSpan InClass(NodeId v, FrozenArcClass c) const {
    switch (c) {
      case FrozenArcClass::kInfluence: return InfluenceIn(v);
      case FrozenArcClass::kTrading: return TradingIn(v);
      default: return In(v);
    }
  }

 private:
  static AdjSpan Slice(const Col<NodeId>& nodes, const Col<ArcId>& arcs,
                       ArcId begin, ArcId end) {
    return AdjSpan{{nodes.data() + begin, nodes.data() + end},
                   {arcs.data() + begin, arcs.data() + end}};
  }

  NodeId num_nodes_ = 0;
  ArcId num_arcs_ = 0;
  ArcId num_influence_arcs_ = 0;
  ArcColor influence_color_ = 1;

  // Out CSR: node v's arcs live at [out_offsets_[v], out_offsets_[v+1]),
  // with the influence run ending at out_influence_end_[v]. Columns are
  // owned when built from an ArcList, borrowed when bound to a snapshot.
  Col<ArcId> out_offsets_;       // num_nodes_ + 1
  Col<ArcId> out_influence_end_; // num_nodes_
  Col<NodeId> out_targets_;      // num_arcs_
  Col<ArcId> out_arc_ids_;       // num_arcs_

  // In CSR, same shape; sources instead of targets.
  Col<ArcId> in_offsets_;
  Col<ArcId> in_influence_end_;
  Col<NodeId> in_sources_;
  Col<ArcId> in_arc_ids_;
};

}  // namespace tpiin

#endif  // TPIIN_GRAPH_FROZEN_H_
