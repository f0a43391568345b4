#include "fusion/tpiin.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "common/string_util.h"
#include "graph/topo.h"

namespace tpiin {

std::string_view NodeColorName(NodeColor color) {
  switch (color) {
    case NodeColor::kPerson:
      return "Person";
    case NodeColor::kCompany:
      return "Company";
  }
  return "unknown";
}

std::vector<std::array<uint32_t, 3>> Tpiin::ToEdgeList() const {
  std::vector<std::array<uint32_t, 3>> rows;
  rows.reserve(NumArcs());
  for (ArcId id = 0; id < NumArcs(); ++id) {
    const Arc a = arc(id);
    rows.push_back({a.src, a.dst, static_cast<uint32_t>(a.color)});
  }
  return rows;
}

TpiinBuilder::TpiinBuilder() {
  net_.label_offsets_.vec().push_back(0);
  net_.person_member_offsets_.vec().push_back(0);
  net_.company_member_offsets_.vec().push_back(0);
}

NodeId TpiinBuilder::AddNode(NodeColor color, std::string_view label) {
  NodeId id = arcs_.num_nodes++;
  net_.node_color_.vec().push_back(color);
  std::vector<char>& bytes = net_.label_bytes_.vec();
  bytes.insert(bytes.end(), label.begin(), label.end());
  net_.label_offsets_.vec().push_back(bytes.size());
  staged_investments_.emplace_back();
  return id;
}

NodeId TpiinBuilder::AddPersonNode(std::string_view label,
                                   std::vector<PersonId> members) {
  NodeId id = AddNode(NodeColor::kPerson, label);
  std::vector<PersonId>& values = net_.person_members_.vec();
  values.insert(values.end(), members.begin(), members.end());
  net_.person_member_offsets_.vec().push_back(values.size());
  net_.company_member_offsets_.vec().push_back(
      net_.company_members_.vec().size());
  return id;
}

NodeId TpiinBuilder::AddCompanyNode(std::string_view label,
                                    std::vector<CompanyId> members) {
  NodeId id = AddNode(NodeColor::kCompany, label);
  std::vector<CompanyId>& values = net_.company_members_.vec();
  values.insert(values.end(), members.begin(), members.end());
  net_.company_member_offsets_.vec().push_back(values.size());
  net_.person_member_offsets_.vec().push_back(
      net_.person_members_.vec().size());
  return id;
}

ArcId TpiinBuilder::LookupOrInsertArcKey(NodeId src, NodeId dst,
                                         ArcColor color) {
  uint64_t key = (static_cast<uint64_t>(src) << 33) |
                 (static_cast<uint64_t>(dst) << 1) |
                 static_cast<uint64_t>(color & 1);
  ArcId next_id = arcs_.NumArcs();
  auto [it, inserted] = seen_arc_keys_.emplace(key, next_id);
  return inserted ? kInvalidArc : it->second;
}

bool TpiinBuilder::EndpointsExist(NodeId src, NodeId dst, ArcColor color) {
  if (src < arcs_.num_nodes && dst < arcs_.num_nodes) return true;
  if (bad_arc_.ok()) {
    bad_arc_ = Status::InvalidArgument(StringPrintf(
        "%s arc %u -> %u names a node that does not exist (%u nodes)",
        color == kArcInfluence ? "influence" : "trading", src, dst,
        arcs_.num_nodes));
  }
  return false;
}

void TpiinBuilder::AddInfluenceArc(NodeId from, NodeId to, double weight) {
  if (saw_trading_arc_) {
    failed_ordering_ = true;
    return;
  }
  if (!EndpointsExist(from, to, kArcInfluence)) return;
  ArcId existing = LookupOrInsertArcKey(from, to, kArcInfluence);
  std::vector<double>& weights = net_.arc_weight_.vec();
  if (existing != kInvalidArc) {
    // Keep the strongest evidence for a deduplicated relationship.
    weights[existing] = std::max(weights[existing], weight);
    return;
  }
  arcs_.arcs.push_back(Arc{from, to, kArcInfluence});
  weights.push_back(weight);
  ++net_.num_influence_arcs_;
}

void TpiinBuilder::AddTradingArc(NodeId seller, NodeId buyer) {
  saw_trading_arc_ = true;
  if (!EndpointsExist(seller, buyer, kArcTrading) ||
      LookupOrInsertArcKey(seller, buyer, kArcTrading) != kInvalidArc) {
    return;
  }
  arcs_.arcs.push_back(Arc{seller, buyer, kArcTrading});
  net_.arc_weight_.vec().push_back(1.0);
}

void TpiinBuilder::AddIntraSyndicateTrade(NodeId syndicate, CompanyId seller,
                                          CompanyId buyer) {
  net_.intra_syndicate_trades_.vec().push_back(
      IntraSyndicateTrade{syndicate, seller, buyer});
}

void TpiinBuilder::SetInternalInvestments(NodeId node,
                                          std::vector<InvestmentArc> arcs) {
  TPIIN_CHECK_LT(node, staged_investments_.size());
  staged_investments_[node] = std::move(arcs);
}

void TpiinBuilder::SetEntityMaps(std::vector<NodeId> person_node,
                                 std::vector<NodeId> company_node) {
  net_.person_node_.Assign(std::move(person_node));
  net_.company_node_.Assign(std::move(company_node));
}

Result<Tpiin> TpiinBuilder::Build() {
  if (failed_ordering_) {
    return Status::FailedPrecondition(
        "influence arcs must all precede trading arcs");
  }
  // The CSR build below indexes per-node arrays by endpoint, so a bad
  // endpoint must never reach it.
  TPIIN_RETURN_IF_ERROR(bad_arc_);

  // Flatten the per-node investment stash into its CSR columns, then
  // seal every column: from here on the network is read-only and all
  // accessors (including the validation passes below) go through the
  // sealed views.
  std::vector<uint64_t>& inv_offsets =
      net_.internal_investment_offsets_.vec();
  std::vector<InvestmentArc>& inv = net_.internal_investments_.vec();
  inv_offsets.reserve(staged_investments_.size() + 1);
  inv_offsets.push_back(0);
  for (std::vector<InvestmentArc>& arcs : staged_investments_) {
    inv.insert(inv.end(), arcs.begin(), arcs.end());
    inv_offsets.push_back(inv.size());
  }
  net_.node_color_.Seal();
  net_.label_offsets_.Seal();
  net_.label_bytes_.Seal();
  net_.person_member_offsets_.Seal();
  net_.person_members_.Seal();
  net_.company_member_offsets_.Seal();
  net_.company_members_.Seal();
  net_.internal_investment_offsets_.Seal();
  net_.internal_investments_.Seal();
  net_.arc_weight_.Seal();
  net_.intra_syndicate_trades_.Seal();

  TPIIN_RETURN_IF_ERROR(ValidateArcs());
  std::vector<NodeId>& src = net_.arc_src_.vec();
  std::vector<NodeId>& dst = net_.arc_dst_.vec();
  src.reserve(arcs_.arcs.size());
  dst.reserve(arcs_.arcs.size());
  for (const Arc& arc : arcs_.arcs) {
    src.push_back(arc.src);
    dst.push_back(arc.dst);
  }
  net_.arc_src_.Seal();
  net_.arc_dst_.Seal();
  // Every traversal-heavy consumer (segmentation, WCC/SCC, incremental
  // screening) reads the CSR view.
  net_.frozen_ = FrozenGraph(arcs_, kArcInfluence);
  arcs_ = ArcList{};
  // The builder is consumed: free its arc-key index (a node per arc)
  // inside the fusion `build` stage, not in the builder's destructor.
  seen_arc_keys_ = decltype(seen_arc_keys_)();
  staged_investments_ = decltype(staged_investments_)();

  // Property 1 rests on the antecedent network being a DAG.
  if (!IsDag(net_.frozen_, FrozenArcClass::kInfluence)) {
    return Status::FailedPrecondition(
        "antecedent (influence) subgraph contains a directed cycle; run "
        "SCC contraction before building a TPIIN");
  }
  return std::move(net_);
}

Status TpiinBuilder::ValidateArcs() const {
  for (const Arc& arc : arcs_.arcs) {
    if (IsInfluenceArc(arc)) {
      if (net_.color(arc.dst) != NodeColor::kCompany) {
        return Status::FailedPrecondition(
            "influence arc must end at a Company node: " + LabelOf(arc.src) +
            " -> " + LabelOf(arc.dst));
      }
    } else {
      if (net_.color(arc.src) != NodeColor::kCompany ||
          net_.color(arc.dst) != NodeColor::kCompany) {
        return Status::FailedPrecondition(
            "trading arc must connect Company nodes: " + LabelOf(arc.src) +
            " -> " + LabelOf(arc.dst));
      }
      if (arc.src == arc.dst) {
        return Status::FailedPrecondition(
            "trading self-loop on node " + LabelOf(arc.src) +
            "; intra-syndicate trades must use AddIntraSyndicateTrade");
      }
    }
  }
  return Status::OK();
}

}  // namespace tpiin
