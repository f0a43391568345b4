#include "fusion/pipeline.h"

#include <unordered_map>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "fusion/layers.h"
#include "graph/frozen.h"
#include "graph/scc.h"
#include "graph/union_find.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

// Builds a syndicate display label from member names: a single member
// keeps its own name; merged members render as "{a+b+c}".
std::string SyndicateLabel(const std::vector<std::string>& names) {
  if (names.size() == 1) return names[0];
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += '+';
    out += names[i];
  }
  out += '}';
  return out;
}

}  // namespace

std::string FusionStats::ToString() const {
  return StringPrintf(
      "G1: %zu persons, %zu interdependence edges -> %zu person nodes "
      "(%zu persons merged)\n"
      "G2: %zu influence records -> %zu influence arcs\n"
      "GI: %zu investment records -> %zu investment arcs "
      "(%zu intra-SCC dropped); %zu company syndicates covering %zu "
      "companies\n"
      "Antecedent: %zu nodes, %zu arcs (DAG)\n"
      "Trading: %zu trade records -> %zu trading arcs "
      "(%zu intra-syndicate)",
      g1_nodes, g1_edges, person_syndicates, persons_in_syndicates,
      influence_records, influence_arcs, investment_records,
      investment_arcs, investment_arcs_intra_scc, company_syndicates,
      companies_in_syndicates, antecedent_nodes, antecedent_arcs,
      trade_records, trading_arcs, intra_syndicate_trades);
}

Result<FusionOutput> BuildTpiin(const RawDataset& dataset,
                                const FusionOptions& options) {
  TPIIN_SPAN("fuse");
  if (options.validate_dataset) {
    TPIIN_SPAN("validate_dataset");
    TPIIN_FAILPOINT("fusion.validate");
    TPIIN_RETURN_IF_ERROR(dataset.Validate());
  }

  FusionStats stats;
  const NodeId num_persons = static_cast<NodeId>(dataset.persons().size());
  const NodeId num_companies =
      static_cast<NodeId>(dataset.companies().size());

  // --- Stage A: the relationship layers and the contractions that only
  // depend on one layer.
  ArcList g1;
  std::vector<NodeId> person_component;
  NodeId num_person_nodes = 0;
  SccResult scc;
  std::vector<double> influence_weight;
  std::unordered_map<NodeId, std::vector<InvestmentArc>> internal_of_component;
  {
    TraceSpan stage("layers", kStage);
    // G1 (kinship + interlocking) + edge contraction: connected
    // components of the interdependence graph become person syndicates.
    // Repeated pairwise edge contraction (the paper's formulation) and
    // union-find produce the same partition; see bench_ablation for the
    // comparison.
    TPIIN_FAILPOINT("fusion.layer.g1");
    g1 = BuildInterdependenceGraph(dataset);
    UnionFind person_uf = UnionArcs(num_persons, g1.arcs);
    person_component = person_uf.DenseComponentIds();
    num_person_nodes = person_uf.NumSets();

    // GI + Tarjan SCC contraction: strongly connected investment
    // subgraphs become company syndicates.
    TPIIN_FAILPOINT("fusion.layer.gi");
    const ArcList gi = BuildInvestmentGraph(dataset);
    scc = StronglyConnectedComponents(FrozenGraph(gi));

    // Internal investment arcs of each nontrivial SCC, collected in one
    // O(arcs) pass, each bucket in arc-id order.
    for (NodeId comp : scc.nontrivial_components) {
      internal_of_component.emplace(comp, std::vector<InvestmentArc>());
    }
    for (const Arc& arc : gi.arcs) {
      NodeId comp = scc.component_of[arc.src];
      if (comp != scc.component_of[arc.dst]) continue;
      auto it = internal_of_component.find(comp);
      if (it == internal_of_component.end()) {
        continue;  // Trivial SCC self-loop.
      }
      it->second.push_back(InvestmentArc{static_cast<CompanyId>(arc.src),
                                         static_cast<CompanyId>(arc.dst)});
    }

    // Influence layer (G2): per-record arc weights, implementing §7's
    // future-work edge weighting — a legal-person link is full strength,
    // director-type links are weaker.
    TPIIN_FAILPOINT("fusion.layer.g2");
    influence_weight.reserve(dataset.influence().size());
    for (const InfluenceRecord& rec : dataset.influence()) {
      double weight = 1.0;
      if (!rec.is_legal_person) {
        switch (rec.kind) {
          case InfluenceKind::kCeoAndDirectorOf:
            weight = 0.9;
            break;
          case InfluenceKind::kCeoOf:
          case InfluenceKind::kChairmanOf:
            weight = 0.8;
            break;
          case InfluenceKind::kDirectorOf:
            weight = 0.6;
            break;
        }
      }
      influence_weight.push_back(weight);
    }
  }

  TraceSpan assemble_stage("assemble", kStage);
  stats.g1_nodes = num_persons;
  stats.g1_edges = g1.NumArcs();
  stats.person_syndicates = num_person_nodes;
  stats.investment_records = dataset.investments().size();
  const NodeId num_company_nodes = scc.num_components;
  stats.company_syndicates = scc.nontrivial_components.size();
  for (NodeId comp : scc.nontrivial_components) {
    stats.companies_in_syndicates += scc.members[comp].size();
  }

  // --- Stage B: assemble TPIIN nodes, person syndicates first, then
  // company (syndicate) nodes, so arc ids and node ids stay grouped by
  // color.
  TpiinBuilder builder;
  std::vector<NodeId> person_node(num_persons, kInvalidNode);
  std::vector<NodeId> company_node(num_companies, kInvalidNode);

  {
    TPIIN_SPAN("fuse_assemble_persons");
    std::vector<std::vector<PersonId>> members(num_person_nodes);
    for (PersonId p = 0; p < num_persons; ++p) {
      members[person_component[p]].push_back(p);
    }
    std::vector<std::string> names;
    for (NodeId c = 0; c < num_person_nodes; ++c) {
      if (members[c].size() > 1) {
        stats.persons_in_syndicates += members[c].size();
      }
      names.clear();
      for (PersonId p : members[c]) {
        names.push_back(dataset.persons()[p].name);
      }
      NodeId id = builder.AddPersonNode(SyndicateLabel(names), members[c]);
      for (PersonId p : members[c]) person_node[p] = id;
    }
  }
  {
    TPIIN_SPAN("fuse_assemble_companies");
    std::vector<std::string> names;
    for (NodeId comp = 0; comp < num_company_nodes; ++comp) {
      std::vector<CompanyId> ids(scc.members[comp].begin(),
                                 scc.members[comp].end());
      names.clear();
      for (CompanyId c : ids) names.push_back(dataset.companies()[c].name);
      NodeId id = builder.AddCompanyNode(SyndicateLabel(names), ids);
      for (CompanyId c : ids) company_node[c] = id;
      if (ids.size() > 1) {
        // Keep the SCS-internal investment arcs: they carry the proof
        // chains for intra-syndicate suspicious trades.
        builder.SetInternalInvestments(
            id, std::move(internal_of_component[comp]));
      }
    }
  }

  // --- Influence arcs (G12'): person syndicate -> company node, with
  // the weights computed in stage A. The builder deduplicates, keeping
  // the maximum weight.
  stats.influence_records = dataset.influence().size();
  for (size_t i = 0; i < dataset.influence().size(); ++i) {
    const InfluenceRecord& rec = dataset.influence()[i];
    builder.AddInfluenceArc(person_node[rec.person],
                            company_node[rec.company], influence_weight[i]);
  }
  stats.influence_arcs = builder.NumArcsSoFar();

  // --- Investment arcs mapped through the SCC contraction; arcs inside
  // one syndicate disappear (they became internal_investments above).
  // The held share fraction becomes the arc weight.
  for (const InvestmentRecord& rec : dataset.investments()) {
    NodeId src = company_node[rec.investor];
    NodeId dst = company_node[rec.investee];
    if (src == dst) {
      ++stats.investment_arcs_intra_scc;
      continue;
    }
    builder.AddInfluenceArc(src, dst, rec.share);
  }
  stats.investment_arcs = builder.NumArcsSoFar() - stats.influence_arcs;

  stats.antecedent_nodes = num_person_nodes + num_company_nodes;
  stats.antecedent_arcs = stats.influence_arcs + stats.investment_arcs;
  assemble_stage.Stop();

  // --- Trading overlay (G4) mapped through the contraction.
  // Intra-syndicate trades are kept per raw record; AddTradingArc drops a
  // repeated (seller node, buyer node) pair, so trading arc ids follow
  // first occurrence.
  stats.trade_records = dataset.trades().size();
  const ArcId arcs_before_overlay = builder.NumArcsSoFar();
  {
    TraceSpan stage("overlay", kStage);
    for (const TradeRecord& rec : dataset.trades()) {
      NodeId src = company_node[rec.seller];
      NodeId dst = company_node[rec.buyer];
      if (src == dst) {
        builder.AddIntraSyndicateTrade(src, rec.seller, rec.buyer);
        ++stats.intra_syndicate_trades;
        continue;
      }
      builder.AddTradingArc(src, dst);
    }
  }
  stats.trading_arcs = builder.NumArcsSoFar() - arcs_before_overlay;

  builder.SetEntityMaps(std::move(person_node), std::move(company_node));
  TPIIN_FAILPOINT("fusion.build");
  Result<Tpiin> built = [&]() {
    TraceSpan stage("build", kStage);
    return builder.Build();
  }();
  TPIIN_RETURN_IF_ERROR(built.status());
  Tpiin net = std::move(built).value();

  TPIIN_GAUGE_SET("fusion.nodes", static_cast<int64_t>(net.NumNodes()));
  TPIIN_GAUGE_SET("fusion.arcs",
                  static_cast<int64_t>(net.num_influence_arcs() +
                                       net.num_trading_arcs()));
  TPIIN_GAUGE_SET("fusion.person_syndicates",
                  static_cast<int64_t>(stats.person_syndicates));
  TPIIN_GAUGE_SET("fusion.company_syndicates",
                  static_cast<int64_t>(stats.company_syndicates));
  TPIIN_GAUGE_SET("fusion.trading_arcs",
                  static_cast<int64_t>(stats.trading_arcs));
  return FusionOutput{std::move(net), stats};
}

void AddFusionToReport(const FusionOutput& output, RunReport* report) {
  const FusionStats& stats = output.stats;
  ReportSection& section = report->Section("fusion");
  section.Set("g1_nodes", stats.g1_nodes);
  section.Set("g1_edges", stats.g1_edges);
  section.Set("person_syndicates", stats.person_syndicates);
  section.Set("persons_in_syndicates", stats.persons_in_syndicates);
  section.Set("influence_records", stats.influence_records);
  section.Set("influence_arcs", stats.influence_arcs);
  section.Set("investment_records", stats.investment_records);
  section.Set("investment_arcs", stats.investment_arcs);
  section.Set("investment_arcs_intra_scc", stats.investment_arcs_intra_scc);
  section.Set("company_syndicates", stats.company_syndicates);
  section.Set("companies_in_syndicates", stats.companies_in_syndicates);
  section.Set("antecedent_nodes", stats.antecedent_nodes);
  section.Set("antecedent_arcs", stats.antecedent_arcs);
  section.Set("trade_records", stats.trade_records);
  section.Set("trading_arcs", stats.trading_arcs);
  section.Set("intra_syndicate_trades", stats.intra_syndicate_trades);

  ReportSection& net_section = report->Section("network");
  net_section.Set("nodes",
                  static_cast<uint64_t>(output.tpiin.NumNodes()));
  net_section.Set(
      "influence_arcs",
      static_cast<uint64_t>(output.tpiin.num_influence_arcs()));
  net_section.Set("trading_arcs",
                  static_cast<uint64_t>(output.tpiin.num_trading_arcs()));
}

}  // namespace tpiin
