// End-to-end `tpiin shard build / detect / merge` through the CLI
// dispatcher, gating the user-facing byte-identity claim: the merged
// report equals the `detect --out` ranked report over the same dataset,
// and budget degradation propagates as exit code 2.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "shard/manifest.h"

namespace tpiin {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct ShardRow {
  uint64_t shard = 0;
  uint64_t groups = 0;
  double seconds = 0;
  std::string degraded;
};

// The rows of a `shard detect --report`'s `shards` table.
std::vector<ShardRow> ShardTableRows(const std::string& json) {
  const std::string key =
      "\"shards\": {\"columns\": [\"shard\", \"groups\", \"seconds\", "
      "\"degraded\"], \"rows\": [";
  std::vector<ShardRow> rows;
  size_t at = json.find(key);
  if (at == std::string::npos) return rows;
  at += key.size();
  while (at < json.size() && json[at] == '[') {
    const size_t end = json.find(']', at);
    std::string fields = json.substr(at + 1, end - at - 1);
    std::replace(fields.begin(), fields.end(), ',', ' ');
    std::istringstream in(fields);
    ShardRow row;
    in >> row.shard >> row.groups >> row.seconds >> row.degraded;
    rows.push_back(row);
    at = end + 1;
    if (json.compare(at, 2, ", ") == 0) at += 2;
  }
  return rows;
}

class ShardCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_shard_cli_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Run(const std::vector<std::string>& args,
                  Status* status_out = nullptr, int* exit_code = nullptr) {
    std::ostringstream out;
    Status status = RunCli(args, out, exit_code);
    if (status_out != nullptr) {
      *status_out = status;
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return out.str();
  }

  std::string dir_;
};

TEST_F(ShardCliTest, BuildDetectMergeMatchesUnshardedDetect) {
  const std::string data = dir_ + "/data";
  const std::string snap = dir_ + "/net.snap";
  const std::string shards = dir_ + "/shards";
  const std::string merged = dir_ + "/merged.txt";
  const std::string out_dir = dir_ + "/detect_out";

  Run({"gen", "--out=" + data, "--companies=200", "--p=0.03",
       "--seed=13"});
  Run({"build", "--data=" + data, "--out=" + snap});
  Run({"detect", "--snapshot=" + snap, "--out=" + out_dir});

  std::string build_output = Run({"shard", "build", "--data=" + data,
                                  "--out=" + shards, "--shards=4"});
  EXPECT_NE(build_output.find("shards populated"), std::string::npos)
      << build_output;
  Run({"shard", "detect", "--dir=" + shards});
  Run({"shard", "merge", "--dir=" + shards, "--out=" + merged});

  const std::string unsharded = Slurp(out_dir + "/ranked.txt");
  ASSERT_FALSE(unsharded.empty());
  EXPECT_EQ(Slurp(merged), unsharded);
}

TEST_F(ShardCliTest, DegradedDetectExitsTwoAndMergePropagates) {
  const std::string data = dir_ + "/data";
  const std::string shards = dir_ + "/shards";
  Run({"gen", "--out=" + data, "--companies=200", "--p=0.03",
       "--seed=13"});
  Run({"shard", "build", "--data=" + data, "--out=" + shards,
       "--shards=2"});

  // A structural cap that always binds: every subTPIIN exceeds one node.
  int exit_code = 0;
  Status status;
  std::string output = Run({"shard", "detect", "--dir=" + shards,
                            "--max-sub-nodes=1"},
                           &status, &exit_code);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(exit_code, 2) << output;

  exit_code = 0;
  output = Run({"shard", "merge", "--dir=" + shards,
                "--out=" + dir_ + "/merged.txt"},
               &status, &exit_code);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(exit_code, 2) << output;
}

TEST_F(ShardCliTest, DetectReportTablesEveryLiveShard) {
  const std::string data = dir_ + "/data";
  const std::string shards = dir_ + "/shards";
  const std::string report = dir_ + "/detect_report.json";
  Run({"gen", "--out=" + data, "--companies=200", "--p=0.03",
       "--seed=13"});
  Run({"shard", "build", "--data=" + data, "--out=" + shards,
       "--shards=4"});
  Run({"shard", "detect", "--dir=" + shards, "--shard-parallel=2",
       "--report=" + report});

  auto manifest = ReadShardManifest(shards + "/" + kShardManifestName);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::vector<uint64_t> live;
  for (const ShardEntry& entry : manifest->shards) {
    if (!entry.empty) live.push_back(entry.shard);
  }
  ASSERT_GT(live.size(), 1u);

  const std::string json = Slurp(report);
  const std::vector<ShardRow> rows = ShardTableRows(json);
  ASSERT_EQ(rows.size(), live.size()) << json;
  uint64_t groups = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].shard, live[i]);
    EXPECT_GT(rows[i].seconds, 0) << i;
    EXPECT_EQ(rows[i].degraded, "false") << i;
    groups += rows[i].groups;
  }
  const std::string total_key = "\"shard_detect\": {\"shards\": ";
  const size_t section = json.find(total_key);
  ASSERT_NE(section, std::string::npos) << json;
  const size_t groups_at = json.find("\"groups\": ", section);
  ASSERT_NE(groups_at, std::string::npos);
  EXPECT_GT(groups, 0u);
  EXPECT_EQ(groups, std::strtoull(json.c_str() + groups_at + 10, nullptr, 10));
}

TEST_F(ShardCliTest, UsageErrors) {
  Status status;
  Run({"shard"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"shard", "frobnicate"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"shard", "build", "--out=" + dir_ + "/x"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  // Shard fusion is serial; the flag is gone.
  Run({"shard", "build", "--data=" + dir_, "--out=" + dir_ + "/x",
       "--threads=2"},
      &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
  Run({"shard", "detect", "--dir=" + dir_ + "/nonexistent"}, &status);
  EXPECT_FALSE(status.ok());
  Run({"shard", "merge", "--dir=" + dir_ + "/nonexistent",
       "--out=" + dir_ + "/m.txt"},
      &status);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace tpiin
