// Run-report stage rows cover the run: for every report-writing command
// the top-level rows (the outermost stage spans of the command's
// thread) add up to at least 95% of total_seconds and never exceed it,
// and each command reports the documented rows in order. The province
// is large enough (1,200 companies, 72k trades, 7 MB of reports) that
// loading and output writing are visible next to fusion and mining.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"

namespace tpiin {
namespace {

struct StageRows {
  double total_seconds = -1;
  std::vector<std::string> names;
  double seconds_sum = 0;
};

// Reads the fixed-format JSON RunReport::ToJson writes.
StageRows ReadStageRows(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  StageRows rows;
  const std::string total_key = "\"total_seconds\": ";
  const size_t total_at = json.find(total_key);
  if (total_at == std::string::npos) return rows;
  rows.total_seconds =
      std::strtod(json.c_str() + total_at + total_key.size(), nullptr);
  const size_t end = json.find("\"sections\": ");
  const std::string name_key = "{\"name\": \"";
  const std::string seconds_key = "\"seconds\": ";
  for (size_t at = json.find(name_key, json.find("\"stages\": ["));
       at < end; at = json.find(name_key, at)) {
    at += name_key.size();
    rows.names.push_back(json.substr(at, json.find('"', at) - at));
    at = json.find(seconds_key, at) + seconds_key.size();
    rows.seconds_sum += std::strtod(json.c_str() + at, nullptr);
  }
  return rows;
}

class StageCoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_stage_coverage_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
    Run({"gen", "--out=" + data(), "--companies=1200", "--p=0.05",
         "--seed=7"});
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Run(const std::vector<std::string>& args) {
    std::ostringstream out;
    const Status status = RunCli(args, out);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  // Runs `args` with --report and checks the report's rows.
  void ExpectRowsCoverRun(std::vector<std::string> args,
                          const std::vector<std::string>& expected_rows) {
    const std::string report = dir_ + "/report_" + std::to_string(runs_++) +
                               ".json";
    args.push_back("--report=" + report);
    std::string command;
    for (const std::string& arg : args) command += arg + " ";
    SCOPED_TRACE(command);
    Run(args);
    const StageRows rows = ReadStageRows(report);
    EXPECT_EQ(rows.names, expected_rows);
    ASSERT_GT(rows.total_seconds, 0);
    EXPECT_GE(rows.seconds_sum, 0.95 * rows.total_seconds)
        << rows.seconds_sum << " of " << rows.total_seconds << " s";
    EXPECT_LE(rows.seconds_sum, rows.total_seconds);
  }

  std::string data() const { return dir_ + "/data"; }

  std::string dir_;
  int runs_ = 0;
};

TEST_F(StageCoverageTest, Fuse) {
  ExpectRowsCoverRun(
      {"fuse", "--data=" + data(), "--out=" + dir_ + "/net.edges"},
      {"load_csv", "layers", "assemble", "overlay", "build", "write_net"});
}

TEST_F(StageCoverageTest, Build) {
  // The four fusion stages nest inside `fuse`, so they are not rows.
  ExpectRowsCoverRun(
      {"build", "--data=" + data(), "--out=" + dir_ + "/csv.snap"},
      {"load_csv", "fuse", "snapshot_write", "snapshot_open"});
  Run({"fuse", "--data=" + data(), "--out=" + dir_ + "/net.edges"});
  ExpectRowsCoverRun({"build", "--net=" + dir_ + "/net.edges",
                      "--out=" + dir_ + "/net.snap"},
                     {"load_net", "snapshot_write", "snapshot_open"});
}

TEST_F(StageCoverageTest, Detect) {
  Run({"fuse", "--data=" + data(), "--out=" + dir_ + "/net.edges"});
  Run({"build", "--data=" + data(), "--out=" + dir_ + "/net.snap"});
  ExpectRowsCoverRun(
      {"detect", "--net=" + dir_ + "/net.edges", "--out=" + dir_ + "/r_net",
       "--json=" + dir_ + "/detect.json", "--threads=1"},
      {"load_net", "segment", "mine", "finalize", "score", "write_json",
       "write_sus_group", "write_sus_trade", "write_report", "write_ranked"});
  ExpectRowsCoverRun(
      {"detect", "--snapshot=" + dir_ + "/net.snap",
       "--out=" + dir_ + "/r_snap", "--threads=4"},
      {"snapshot_open", "segment", "mine", "finalize", "score",
       "write_sus_group", "write_sus_trade", "write_report", "write_ranked"});
}

TEST_F(StageCoverageTest, Shard) {
  const std::string shards = dir_ + "/shards";
  ExpectRowsCoverRun(
      {"shard", "build", "--data=" + data(), "--out=" + shards, "--shards=3"},
      {"shard_plan", "shard_route", "shard_fuse"});
  // Shards detected concurrently: their stages run on pool workers and
  // are not rows of the command's report.
  ExpectRowsCoverRun(
      {"shard", "detect", "--dir=" + shards, "--shard-parallel=2"},
      {"shard_detect"});
  ExpectRowsCoverRun({"shard", "merge", "--dir=" + shards,
                      "--out=" + dir_ + "/merged.txt"},
                     {"shard_merge"});
}

}  // namespace
}  // namespace tpiin
