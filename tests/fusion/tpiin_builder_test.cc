#include <gtest/gtest.h>

#include "fusion/tpiin.h"

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

TEST(NodeColorTest, Names) {
  EXPECT_EQ(NodeColorName(NodeColor::kPerson), "Person");
  EXPECT_EQ(NodeColorName(NodeColor::kCompany), "Company");
}

}  // namespace
}  // namespace tpiin
