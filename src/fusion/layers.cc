#include "fusion/layers.h"

#include <unordered_set>

namespace tpiin {

namespace {

// Packs an ordered node pair into one key for dedup sets.
uint64_t PairKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

ArcList BuildInterdependenceGraph(const RawDataset& dataset) {
  ArcList g{static_cast<NodeId>(dataset.persons().size()), {}};
  std::unordered_set<uint64_t> seen;
  for (const InterdependenceRecord& rec : dataset.interdependence()) {
    NodeId a = rec.person_a;
    NodeId b = rec.person_b;
    if (a > b) std::swap(a, b);
    if (!seen.insert(PairKey(a, b)).second) continue;
    ArcColor color = rec.kind == InterdependenceKind::kKinship
                         ? kLayerKinship
                         : kLayerInterlocking;
    g.arcs.push_back(Arc{a, b, color});
  }
  return g;
}

ArcList BuildInfluenceLayerGraph(const RawDataset& dataset) {
  const NodeId num_persons = static_cast<NodeId>(dataset.persons().size());
  const NodeId num_companies =
      static_cast<NodeId>(dataset.companies().size());
  ArcList g{num_persons + num_companies, {}};
  std::unordered_set<uint64_t> seen;
  for (const InfluenceRecord& rec : dataset.influence()) {
    NodeId src = rec.person;
    NodeId dst = num_persons + rec.company;
    if (!seen.insert(PairKey(src, dst)).second) continue;
    g.arcs.push_back(Arc{src, dst, kLayerInfluence});
  }
  return g;
}

ArcList BuildInvestmentGraph(const RawDataset& dataset) {
  ArcList g{static_cast<NodeId>(dataset.companies().size()), {}};
  std::unordered_set<uint64_t> seen;
  for (const InvestmentRecord& rec : dataset.investments()) {
    if (!seen.insert(PairKey(rec.investor, rec.investee)).second) continue;
    g.arcs.push_back(Arc{rec.investor, rec.investee, kLayerInvestment});
  }
  return g;
}

ArcList BuildTradingGraph(const RawDataset& dataset) {
  ArcList g{static_cast<NodeId>(dataset.companies().size()), {}};
  std::unordered_set<uint64_t> seen;
  for (const TradeRecord& rec : dataset.trades()) {
    if (!seen.insert(PairKey(rec.seller, rec.buyer)).second) continue;
    g.arcs.push_back(Arc{rec.seller, rec.buyer, kLayerTrading});
  }
  return g;
}

}  // namespace tpiin
