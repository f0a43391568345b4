#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/province.h"
#include "fusion/pipeline.h"
#include "fusion/tpiin.h"
#include "io/dataset_csv.h"

namespace tpiin {
namespace {

TEST(TpiinBuilderTest, MinimalNetwork) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P1");
  NodeId c = builder.AddCompanyNode("C1");
  builder.AddInfluenceArc(p, c);
  Result<Tpiin> net = builder.Build();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_EQ(net->NumNodes(), 2u);
  EXPECT_EQ(net->num_influence_arcs(), 1u);
  EXPECT_EQ(net->num_trading_arcs(), 0u);
  EXPECT_EQ(net->Label(p), "P1");
  EXPECT_EQ(net->node(p).color, NodeColor::kPerson);
  EXPECT_EQ(net->node(c).color, NodeColor::kCompany);
}

TEST(TpiinBuilderTest, InfluenceIntoPersonRejected) {
  TpiinBuilder builder;
  NodeId p1 = builder.AddPersonNode("P1");
  NodeId p2 = builder.AddPersonNode("P2");
  builder.AddInfluenceArc(p1, p2);
  EXPECT_TRUE(builder.Build().status().IsFailedPrecondition());
}

TEST(TpiinBuilderTest, TradingBetweenNonCompaniesRejected) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P1");
  NodeId c = builder.AddCompanyNode("C1");
  builder.AddTradingArc(p, c);
  EXPECT_TRUE(builder.Build().status().IsFailedPrecondition());
}

TEST(TpiinBuilderTest, TradingSelfLoopRejected) {
  TpiinBuilder builder;
  NodeId c = builder.AddCompanyNode("C1");
  builder.AddTradingArc(c, c);
  EXPECT_TRUE(builder.Build().status().IsFailedPrecondition());
}

// An arc naming a node that was never added must be refused by Build()
// rather than reaching the CSR build, which indexes per-node arrays by
// endpoint.
TEST(TpiinBuilderTest, ArcToMissingNodeRejected) {
  TpiinBuilder builder;
  builder.AddCompanyNode("C1");
  builder.AddCompanyNode("C2");
  builder.AddTradingArc(0, 99);
  Result<Tpiin> net = builder.Build();
  ASSERT_TRUE(net.status().IsInvalidArgument()) << net.status().ToString();
  EXPECT_NE(net.status().message().find("0 -> 99"), std::string::npos)
      << net.status().ToString();

  TpiinBuilder influence;
  influence.AddPersonNode("P1");
  influence.AddInfluenceArc(7, 0);
  EXPECT_TRUE(influence.Build().status().IsInvalidArgument());
}

TEST(TpiinBuilderTest, InfluenceAfterTradingRejected) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P1");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddTradingArc(c1, c2);
  builder.AddInfluenceArc(p, c1);
  EXPECT_TRUE(builder.Build().status().IsFailedPrecondition());
}

TEST(TpiinBuilderTest, CyclicAntecedentRejected) {
  TpiinBuilder builder;
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(c1, c2);
  builder.AddInfluenceArc(c2, c1);
  Result<Tpiin> net = builder.Build();
  ASSERT_FALSE(net.ok());
  EXPECT_TRUE(net.status().IsFailedPrecondition());
  EXPECT_NE(net.status().message().find("cycle"), std::string::npos);
}

TEST(TpiinBuilderTest, CompanyInvestmentChainAllowed) {
  // Company -> company influence arcs (investment) are legal antecedent
  // structure.
  TpiinBuilder builder;
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  builder.AddInfluenceArc(c1, c2);
  builder.AddInfluenceArc(c2, c3);
  builder.AddTradingArc(c3, c1);
  Result<Tpiin> net = builder.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_trading_arcs(), 1u);
}

TEST(TpiinBuilderTest, EdgeListEncoding) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(p, c2);
  builder.AddTradingArc(c1, c2);
  Result<Tpiin> net = builder.Build();
  ASSERT_TRUE(net.ok());
  auto rows = net->ToEdgeList();
  ASSERT_EQ(rows.size(), 3u);
  // Antecedent rows (blue, 1) precede trading rows (black, 0).
  EXPECT_EQ(rows[0][2], 1u);
  EXPECT_EQ(rows[1][2], 1u);
  EXPECT_EQ(rows[2][2], 0u);
  EXPECT_EQ(rows[2][0], c1);
  EXPECT_EQ(rows[2][1], c2);
}

TEST(TpiinBuilderTest, SyndicateMetadata) {
  TpiinBuilder builder;
  NodeId syn = builder.AddCompanyNode("{C1+C2}", {0, 1});
  builder.SetInternalInvestments(syn, {{0, 1}, {1, 0}});
  builder.AddIntraSyndicateTrade(syn, 0, 1);
  Result<Tpiin> net = builder.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(net->node(syn).IsSyndicate());
  EXPECT_EQ(net->node(syn).internal_investments.size(), 2u);
  ASSERT_EQ(net->intra_syndicate_trades().size(), 1u);
  EXPECT_EQ(net->intra_syndicate_trades()[0].seller, 0u);
}

// The arc dedup the builder must reproduce, on a std::map: a repeated
// (src, dst, color) keeps its first-occurrence id, a repeated influence
// arc keeps the maximum weight, trading arcs weigh 1.
struct ReferenceArcs {
  std::map<std::tuple<NodeId, NodeId, ArcColor>, ArcId> ids;
  std::vector<Arc> arcs;
  std::vector<double> weights;

  void Add(NodeId src, NodeId dst, ArcColor color, double weight) {
    auto [it, inserted] = ids.emplace(std::make_tuple(src, dst, color),
                                      static_cast<ArcId>(arcs.size()));
    if (!inserted) {
      if (color == kArcInfluence) {
        weights[it->second] = std::max(weights[it->second], weight);
      }
      return;
    }
    arcs.push_back(Arc{src, dst, color});
    weights.push_back(color == kArcInfluence ? weight : 1.0);
  }
};

void ExpectArcsMatch(const Tpiin& net, const ReferenceArcs& reference) {
  ASSERT_EQ(net.NumArcs(), reference.arcs.size());
  for (ArcId id = 0; id < net.NumArcs(); ++id) {
    const Arc arc = net.arc(id);
    const Arc& want = reference.arcs[id];
    ASSERT_EQ(arc.src, want.src) << "arc " << id;
    ASSERT_EQ(arc.dst, want.dst) << "arc " << id;
    ASSERT_EQ(arc.color, want.color) << "arc " << id;
    ASSERT_EQ(net.ArcWeight(id), reference.weights[id]) << "arc " << id;
  }
}

// Seeded arc streams drawn with replacement from small candidate pools,
// so most arcs repeat, and large enough to rehash the key table several
// times. Influence arcs point from lower to higher node ids (a DAG);
// every company -> company influence pair is also a trading candidate,
// so equal endpoints with different colors must stay distinct arcs.
TEST(TpiinBuilderTest, RandomDuplicateStreamsMatchMapReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    constexpr NodeId kPersons = 40;
    constexpr NodeId kCompanies = 300;
    TpiinBuilder builder;
    for (NodeId p = 0; p < kPersons; ++p) builder.AddPersonNode("P");
    for (NodeId c = 0; c < kCompanies; ++c) builder.AddCompanyNode("C");

    std::vector<std::pair<NodeId, NodeId>> influence_pool;
    while (influence_pool.size() < 900) {
      NodeId src = static_cast<NodeId>(rng.UniformU64(kPersons + kCompanies));
      NodeId dst = kPersons + static_cast<NodeId>(rng.UniformU64(kCompanies));
      if (src < dst) influence_pool.emplace_back(src, dst);
    }
    std::vector<std::pair<NodeId, NodeId>> trading_pool;
    for (const auto& [src, dst] : influence_pool) {
      if (src >= kPersons) trading_pool.emplace_back(src, dst);
    }
    while (trading_pool.size() < 6000) {
      NodeId src = kPersons + static_cast<NodeId>(rng.UniformU64(kCompanies));
      NodeId dst = kPersons + static_cast<NodeId>(rng.UniformU64(kCompanies));
      if (src != dst) trading_pool.emplace_back(src, dst);
    }

    ReferenceArcs reference;
    for (int i = 0; i < 4000; ++i) {
      const auto& [src, dst] =
          influence_pool[rng.UniformU64(influence_pool.size())];
      const double weight = rng.UniformDouble(0.01, 1.0);
      builder.AddInfluenceArc(src, dst, weight);
      reference.Add(src, dst, kArcInfluence, weight);
    }
    for (int i = 0; i < 30000; ++i) {
      const auto& [src, dst] =
          trading_pool[rng.UniformU64(trading_pool.size())];
      builder.AddTradingArc(src, dst);
      reference.Add(src, dst, kArcTrading, 1.0);
    }
    ASSERT_LT(reference.arcs.size(), 4000u + 30000u) << "streams repeat";
    ASSERT_EQ(builder.NumArcsSoFar(), reference.arcs.size());
    Result<Tpiin> net = builder.Build();
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    ExpectArcsMatch(*net, reference);
  }
}

// The pipeline's influence weighting (§7 future work): a legal-person
// link is full strength, director-type links are weaker.
double InfluenceWeight(const InfluenceRecord& rec) {
  if (rec.is_legal_person) return 1.0;
  switch (rec.kind) {
    case InfluenceKind::kCeoAndDirectorOf:
      return 0.9;
    case InfluenceKind::kCeoOf:
    case InfluenceKind::kChairmanOf:
      return 0.8;
    case InfluenceKind::kDirectorOf:
      return 0.6;
  }
  return 1.0;
}

// Rewrites every table of a CSV province with its data rows shuffled;
// a quarter of the trade rows are written twice, so the overlay sees
// repeated relationships in random order.
void ShuffleProvinceCsv(const std::string& dir, uint64_t seed) {
  Rng rng(seed);
  for (const char* table :
       {"persons.csv", "companies.csv", "interdependence.csv",
        "influence.csv", "investment.csv", "trades.csv"}) {
    const std::string path = dir + "/" + table;
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    std::vector<std::string> rows;
    for (std::string line; std::getline(in, line);) {
      rows.push_back(line);
      if (std::string(table) == "trades.csv" && rng.UniformU64(4) == 0) {
        rows.push_back(line);
      }
    }
    in.close();
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.UniformU64(i)]);
    }
    std::ofstream out(path, std::ios::trunc);
    out << header << '\n';
    for (const std::string& row : rows) out << row << '\n';
  }
}

TEST(TpiinBuilderTest, ShuffledProvinceMatchesMapReference) {
  ProvinceConfig config = SmallProvinceConfig(300, 5);
  config.trading_probability = 0.1;
  Result<Province> province = GenerateProvince(config);
  ASSERT_TRUE(province.ok()) << province.status().ToString();
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("tpiin_builder_shuffled_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDatasetCsv(dir, province->dataset).ok());
  ShuffleProvinceCsv(dir, 17);
  Result<RawDataset> dataset = LoadDatasetCsv(dir);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  Result<FusionOutput> fused = BuildTpiin(*dataset);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  const Tpiin& net = fused->tpiin;
  ReferenceArcs reference;
  for (const InfluenceRecord& rec : dataset->influence()) {
    reference.Add(net.NodeOfPerson(rec.person), net.NodeOfCompany(rec.company),
                  kArcInfluence, InfluenceWeight(rec));
  }
  for (const InvestmentRecord& rec : dataset->investments()) {
    const NodeId src = net.NodeOfCompany(rec.investor);
    const NodeId dst = net.NodeOfCompany(rec.investee);
    if (src != dst) reference.Add(src, dst, kArcInfluence, rec.share);
  }
  const ArcId num_influence = static_cast<ArcId>(reference.arcs.size());
  size_t intra = 0;
  for (const TradeRecord& rec : dataset->trades()) {
    const NodeId src = net.NodeOfCompany(rec.seller);
    const NodeId dst = net.NodeOfCompany(rec.buyer);
    if (src == dst) {
      ++intra;
      continue;
    }
    reference.Add(src, dst, kArcTrading, 1.0);
  }
  EXPECT_EQ(net.num_influence_arcs(), num_influence);
  EXPECT_EQ(net.intra_syndicate_trades().size(), intra);
  EXPECT_GT(dataset->trades().size() - intra,
            reference.arcs.size() - num_influence)
      << "duplicated trade rows must be deduplicated";
  ExpectArcsMatch(net, reference);
}

TEST(NodeColorTest, Names) {
  EXPECT_EQ(NodeColorName(NodeColor::kPerson), "Person");
  EXPECT_EQ(NodeColorName(NodeColor::kCompany), "Company");
}

}  // namespace
}  // namespace tpiin
