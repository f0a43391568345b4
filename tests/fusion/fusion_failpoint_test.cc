// Failpoint-driven fault injection through the fusion pipeline: a stage
// that fails mid-flight must surface as a Status on the caller and leave
// the pipeline reusable.

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"

namespace tpiin {
namespace {

class FusionFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Clear(); }
  void TearDown() override { Failpoints::Clear(); }
};

TEST_F(FusionFailpointTest, LayerFaultSurfacesAsStatus) {
  RawDataset dataset = BuildWorkedExampleDataset();
  for (const char* site :
       {"fusion.layer.g1", "fusion.layer.g2", "fusion.layer.gi",
        "fusion.validate", "fusion.build"}) {
    ASSERT_TRUE(
        Failpoints::Configure(std::string(site) + ":error").ok());
    auto output = BuildTpiin(dataset);
    EXPECT_FALSE(output.ok()) << site;
    EXPECT_TRUE(output.status().IsInternal()) << site;
    Failpoints::Clear();
  }
}

TEST_F(FusionFailpointTest, PipelineRecoversAfterInjectedFault) {
  RawDataset dataset = BuildWorkedExampleDataset();
  ASSERT_TRUE(Failpoints::Configure("fusion.layer.g1:error").ok());
  EXPECT_FALSE(BuildTpiin(dataset).ok());
  Failpoints::Clear();

  // The same pipeline must produce a clean result afterwards.
  auto output = BuildTpiin(dataset);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GT(output->tpiin.NumNodes(), 0u);
}

TEST_F(FusionFailpointTest, NthHitFiresMidPipeline) {
  RawDataset dataset = BuildWorkedExampleDataset();
  // First build passes (the site's first hit is a no-op), second fails.
  ASSERT_TRUE(Failpoints::Configure("fusion.build:error@2").ok());
  EXPECT_TRUE(BuildTpiin(dataset).ok());
  EXPECT_FALSE(BuildTpiin(dataset).ok());
}

}  // namespace
}  // namespace tpiin
