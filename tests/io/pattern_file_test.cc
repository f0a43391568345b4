#include "io/pattern_file.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/pattern_tree.h"
#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"

namespace tpiin {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class PatternFileTest : public ::testing::Test {
 protected:
  PatternFileTest() : net_(BuildWorkedExampleTpiin()) {
    subs_ = SegmentTpiin(net_);
    auto gen = GeneratePatternBase(subs_[0]);
    EXPECT_TRUE(gen.ok());
    base_ = std::move(gen)->base;
    auto result = DetectSuspiciousGroups(net_);
    EXPECT_TRUE(result.ok());
    detection_ = std::move(result).value();
  }

  Tpiin net_;
  std::vector<SubTpiin> subs_;
  PatternBase base_;
  DetectionResult detection_;
};

TEST_F(PatternFileTest, PatternBaseFileNumbersAllTrails) {
  std::string path = TempPath("tpiin_patterns_1.txt");
  ASSERT_TRUE(WritePatternBaseFile(path, subs_[0], base_).ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("1. "), std::string::npos);
  EXPECT_NE(text.find("15. "), std::string::npos);
  EXPECT_NE(text.find("-> C6"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, SusGroupFileListsAllGroups) {
  std::string path = TempPath("tpiin_susgroup_1.txt");
  ASSERT_TRUE(
      WriteSuspiciousGroupsFile(path, net_, detection_.groups).ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("B1"), std::string::npos);
  EXPECT_NE(text.find("[simple]"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, SusTradeFileListsArcs) {
  std::string path = TempPath("tpiin_sustrade_1.txt");
  ASSERT_TRUE(WriteSuspiciousTradesFile(path, net_,
                                        detection_.suspicious_trades)
                  .ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("C3 -> C5"), std::string::npos);
  EXPECT_NE(text.find("C5 -> C6"), std::string::npos);
  EXPECT_NE(text.find("C7 -> C8"), std::string::npos);
  EXPECT_EQ(text.find("C8 -> C4"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, DetectionReportIsComprehensive) {
  std::string path = TempPath("tpiin_report.txt");
  ASSERT_TRUE(WriteDetectionReport(path, net_, detection_).ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("Suspicious trading relationships"),
            std::string::npos);
  EXPECT_NE(text.find("Suspicious groups"), std::string::npos);
  EXPECT_NE(text.find("simple=3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, UnwritablePathsFail) {
  EXPECT_TRUE(
      WritePatternBaseFile("/no/dir/p.txt", subs_[0], base_).IsIOError());
  EXPECT_TRUE(WriteSuspiciousGroupsFile("/no/dir/g.txt", net_, {})
                  .IsIOError());
  EXPECT_TRUE(WriteSuspiciousTradesFile("/no/dir/t.txt", net_, {})
                  .IsIOError());
  EXPECT_TRUE(
      WriteDetectionReport("/no/dir/r.txt", net_, detection_).IsIOError());
}

// The susGroup line as SuspiciousGroup::Format built it before the
// direct-append formatter: the oracle the batched renderer must match.
std::string OracleLine(const Tpiin& net, const SuspiciousGroup& group) {
  std::string out(net.Label(group.antecedent));
  out += ": {";
  for (size_t i = 0; i < group.trade_trail.size(); ++i) {
    if (i > 0) out += ", ";
    out += net.Label(group.trade_trail[i]);
  }
  out += " -> ";
  out += net.Label(group.trade_buyer);
  out += "} | {";
  for (size_t i = 0; i < group.partner_trail.size(); ++i) {
    if (i > 0) out += ", ";
    out += net.Label(group.partner_trail[i]);
  }
  out += "}";
  if (group.from_cycle) out += " [circle]";
  out += group.is_simple ? " [simple]" : " [complex]";
  return out;
}

// `tpiin gen --companies=300 --p=0.1 --seed=7`: 9,245 groups, more
// than two of the renderer's 4,096-group batches. Parameterised by the
// render thread count.
class GroupRenderTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static void SetUpTestSuite() {
    ProvinceConfig config = SmallProvinceConfig(300, 7);
    config.trading_probability = 0.1;
    Result<Province> province = GenerateProvince(config);
    ASSERT_TRUE(province.ok()) << province.status().ToString();
    Result<FusionOutput> fused = BuildTpiin(province->dataset);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    net_ = new Tpiin(std::move(fused->tpiin));
    Result<DetectionResult> detection = DetectSuspiciousGroups(*net_);
    ASSERT_TRUE(detection.ok()) << detection.status().ToString();
    detection_ = new DetectionResult(std::move(*detection));
  }

  static void TearDownTestSuite() {
    delete detection_;
    delete net_;
    detection_ = nullptr;
    net_ = nullptr;
  }

  void SetUp() override {
    ASSERT_NE(detection_, nullptr);
    // ctest runs each case as its own process, concurrently: one
    // directory per process. (The case name holds a '/'.)
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_group_render_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    Failpoints::Clear();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  static Tpiin* net_;
  static DetectionResult* detection_;
  std::string dir_;
};

Tpiin* GroupRenderTest::net_ = nullptr;
DetectionResult* GroupRenderTest::detection_ = nullptr;

TEST_P(GroupRenderTest, ProvinceSpansSeveralBatches) {
  EXPECT_EQ(detection_->groups.size(), 9245u);
}

TEST_P(GroupRenderTest, SusGroupFileMatchesLineOracle) {
  const std::string path = Path("susGroup.txt");
  ASSERT_TRUE(WriteSuspiciousGroupsFile(path, *net_, detection_->groups,
                                        GetParam())
                  .ok());
  std::string expected;
  for (const SuspiciousGroup& group : detection_->groups) {
    expected += OracleLine(*net_, group) + "\n";
    EXPECT_EQ(group.Format(*net_), OracleLine(*net_, group));
  }
  EXPECT_EQ(ReadAll(path), expected);
}

TEST_P(GroupRenderTest, ReportGroupSectionIsIndentedSusGroup) {
  ASSERT_TRUE(WriteSuspiciousGroupsFile(Path("susGroup.txt"), *net_,
                                        detection_->groups, GetParam())
                  .ok());
  ASSERT_TRUE(WriteDetectionReport(Path("report.txt"), *net_, *detection_,
                                   GetParam())
                  .ok());
  std::istringstream groups(ReadAll(Path("susGroup.txt")));
  std::string indented;
  for (std::string line; std::getline(groups, line);) {
    indented += "  " + line + "\n";
  }
  const std::string report = ReadAll(Path("report.txt"));
  const std::string header = "\nSuspicious groups:\n";
  const size_t at = report.find(header);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(report.substr(at + header.size()), indented);
}

TEST_P(GroupRenderTest, RenderEqualsFile) {
  ASSERT_TRUE(WriteSuspiciousGroupsFile(Path("susGroup.txt"), *net_,
                                        detection_->groups, GetParam())
                  .ok());
  EXPECT_EQ(RenderSuspiciousGroups(*net_, detection_->groups, GetParam()),
            ReadAll(Path("susGroup.txt")));
}

TEST_P(GroupRenderTest, ZeroGroupsGiveAnEmptyFile) {
  ASSERT_TRUE(
      WriteSuspiciousGroupsFile(Path("susGroup.txt"), *net_, {}, GetParam())
          .ok());
  EXPECT_TRUE(std::filesystem::exists(Path("susGroup.txt")));
  EXPECT_EQ(ReadAll(Path("susGroup.txt")), "");
  EXPECT_EQ(RenderSuspiciousGroups(*net_, {}, GetParam()), "");
}

TEST_P(GroupRenderTest, FailedCommitLeavesThePreviousFile) {
  const std::vector<SuspiciousGroup> first(detection_->groups.begin(),
                                           detection_->groups.begin() + 10);
  ASSERT_TRUE(WriteSuspiciousGroupsFile(Path("susGroup.txt"), *net_, first,
                                        GetParam())
                  .ok());
  ASSERT_TRUE(WriteDetectionReport(Path("report.txt"), *net_, *detection_,
                                   GetParam())
                  .ok());
  const std::string groups_before = ReadAll(Path("susGroup.txt"));
  const std::string report_before = ReadAll(Path("report.txt"));

  DetectionResult smaller = *detection_;
  smaller.groups = first;
  ASSERT_TRUE(Failpoints::Configure("io.atomic.commit:ioerror").ok());
  EXPECT_TRUE(WriteSuspiciousGroupsFile(Path("susGroup.txt"), *net_,
                                        detection_->groups, GetParam())
                  .IsIOError());
  EXPECT_TRUE(WriteDetectionReport(Path("report.txt"), *net_, smaller,
                                   GetParam())
                  .IsIOError());
  Failpoints::Clear();
  EXPECT_EQ(ReadAll(Path("susGroup.txt")), groups_before);
  EXPECT_EQ(ReadAll(Path("report.txt")), report_before);
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 2u) << "a failed commit removes its temporary";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, GroupRenderTest,
                         ::testing::Values(1u, 4u));

}  // namespace
}  // namespace tpiin
