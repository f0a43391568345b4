#include "cli/cli.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace tpiin {
namespace {

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double NumberAfter(const std::string& text, const std::string& key,
                   size_t* pos) {
  size_t at = text.find(key, *pos);
  if (at == std::string::npos) return -1;
  *pos = at + key.size();
  return std::strtod(text.c_str() + *pos, nullptr);
}

// A run report must carry a real wall clock: positive, and at least the
// sum of the stage times it breaks down; and real CPU and thread figures.
void ExpectTimedReport(const std::string& path, const std::string& tool) {
  SCOPED_TRACE(tool);
  const std::string json = ReadFileToString(path);
  EXPECT_NE(json.find("\"tool\": \"" + tool + "\""), std::string::npos);
  size_t pos = 0;
  const double total = NumberAfter(json, "\"total_seconds\": ", &pos);
  EXPECT_GT(total, 0) << json;

  const size_t stages_begin = json.find("\"stages\": [");
  const size_t stages_end = json.find("\"sections\": ");
  ASSERT_NE(stages_begin, std::string::npos);
  ASSERT_NE(stages_end, std::string::npos);
  const std::string stages =
      json.substr(stages_begin, stages_end - stages_begin);
  double stage_sum = 0;
  size_t num_stages = 0;
  for (size_t at = 0;;) {
    const double seconds = NumberAfter(stages, "\"seconds\": ", &at);
    if (seconds < 0) break;
    stage_sum += seconds;
    ++num_stages;
  }
  EXPECT_GT(num_stages, 0u) << json;
  EXPECT_GE(total, stage_sum) << json;

  // No placeholder figures: every stage measured its CPU time, and the
  // report names the thread count it ran with.
  size_t num_cpu = 0;
  for (size_t at = 0;;) {
    const double cpu = NumberAfter(stages, "\"cpu_seconds\": ", &at);
    if (cpu < 0) break;
    EXPECT_GT(cpu, 0) << "stage " << num_cpu << ": " << json;
    ++num_cpu;
  }
  EXPECT_EQ(num_cpu, num_stages) << json;
  size_t threads_at = 0;
  EXPECT_GE(NumberAfter(json, "\"threads\": ", &threads_at), 1) << json;
}

// The seconds of stage `name` in a run report (-1 when absent).
double StageSeconds(const std::string& json, const std::string& name) {
  size_t pos = json.find("{\"name\": \"" + name + "\"");
  if (pos == std::string::npos) return -1;
  return NumberAfter(json, "\"seconds\": ", &pos);
}

// `build`'s snapshot figures come from its stage laps, not a second
// clock: the cold start is the sum of the `cold_stages` rows and the
// open is the snapshot_open row. Both sides are read back from the
// report, which prints 9 significant digits, so they agree to that
// precision (a relative 2e-8), and a second clock misses it by the
// microseconds between two reads.
void ExpectSnapshotFiguresAreLaps(const std::string& path,
                                  const std::vector<std::string>& cold_stages) {
  SCOPED_TRACE(path);
  const std::string json = ReadFileToString(path);
  double cold_seconds = 0;
  for (const std::string& stage : cold_stages) {
    const double seconds = StageSeconds(json, stage);
    ASSERT_GT(seconds, 0) << stage << ": " << json;
    cold_seconds += seconds;
  }
  const double open_seconds = StageSeconds(json, "snapshot_open");
  ASSERT_GT(open_seconds, 0) << json;
  size_t pos = json.find("\"snapshot\": {");
  ASSERT_NE(pos, std::string::npos) << json;
  const double cold_ms = NumberAfter(json, "\"cold_start_ms\": ", &pos);
  const double open_ms = NumberAfter(json, "\"snapshot_open_ms\": ", &pos);
  const double speedup = NumberAfter(json, "\"speedup\": ", &pos);
  EXPECT_NEAR(cold_ms, 1e3 * cold_seconds, 2e-8 * cold_ms) << json;
  EXPECT_NEAR(open_ms, 1e3 * open_seconds, 2e-8 * open_ms) << json;
  EXPECT_NEAR(speedup, cold_seconds / open_seconds, 1e-7 * speedup) << json;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_cli_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Run(const std::vector<std::string>& args,
                  Status* status_out = nullptr) {
    std::ostringstream out;
    Status status = RunCli(args, out);
    if (status_out != nullptr) {
      *status_out = status;
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return out.str();
  }

  std::string dir_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_NE(Run({}).find("Commands:"), std::string::npos);
  EXPECT_NE(Run({"help"}).find("detect"), std::string::npos);
  Status status;
  Run({"frobnicate"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST_F(CliTest, GenFuseDetectPipeline) {
  std::string data_dir = dir_ + "/data";
  std::string net_file = dir_ + "/net.edges";

  std::string gen_output = Run({"gen", "--out=" + data_dir,
                                "--companies=120", "--p=0.02",
                                "--plant=10", "--seed=3"});
  EXPECT_NE(gen_output.find("dataset:"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(data_dir + "/persons.csv"));

  std::string fuse_output =
      Run({"fuse", "--data=" + data_dir, "--out=" + net_file});
  EXPECT_NE(fuse_output.find("Antecedent"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(net_file));

  std::string report_dir = dir_ + "/reports";
  std::string detect_output =
      Run({"detect", "--net=" + net_file, "--out=" + report_dir,
           "--threads=2", "--top=5"});
  EXPECT_NE(detect_output.find("suspicious trades"), std::string::npos);
  EXPECT_NE(detect_output.find("proof chains"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(report_dir + "/susGroup.txt"));
  EXPECT_TRUE(std::filesystem::exists(report_dir + "/susTrade.txt"));
  EXPECT_TRUE(std::filesystem::exists(report_dir + "/report.txt"));
}

TEST_F(CliTest, StatsAndExport) {
  std::string data_dir = dir_ + "/data";
  std::string net_file = dir_ + "/net.edges";
  Run({"gen", "--out=" + data_dir, "--companies=60", "--seed=9"});
  Run({"fuse", "--data=" + data_dir, "--out=" + net_file});

  std::string stats = Run({"stats", "--net=" + net_file});
  EXPECT_NE(stats.find("antecedent:"), std::string::npos);
  EXPECT_NE(stats.find("trading:"), std::string::npos);

  std::string dot_file = dir_ + "/net.dot";
  Run({"export", "--net=" + net_file, "--format=dot",
       "--out=" + dot_file});
  EXPECT_TRUE(std::filesystem::exists(dot_file));

  std::string gexf_file = dir_ + "/net.gexf";
  Run({"export", "--net=" + net_file, "--format=gexf",
       "--out=" + gexf_file});
  EXPECT_TRUE(std::filesystem::exists(gexf_file));

  std::string ego_file = dir_ + "/ego.dot";
  std::string ego_output =
      Run({"export", "--net=" + net_file, "--format=dot",
           "--out=" + ego_file, "--ego=C0000", "--depth=2"});
  EXPECT_NE(ego_output.find("ego network of C0000"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(ego_file));

  Status status;
  Run({"export", "--net=" + net_file, "--format=dot",
       "--out=" + dir_ + "/x.dot", "--ego=NoSuch"},
      &status);
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(CliTest, ExplainAndJsonReport) {
  std::string data_dir = dir_ + "/data";
  std::string net_file = dir_ + "/net.edges";
  Run({"gen", "--out=" + data_dir, "--companies=100", "--p=0.02",
       "--plant=8", "--seed=21"});
  Run({"fuse", "--data=" + data_dir, "--out=" + net_file});

  std::string json_file = dir_ + "/report.json";
  std::string detect_output = Run(
      {"detect", "--net=" + net_file, "--json=" + json_file, "--top=3"});
  EXPECT_NE(detect_output.find("JSON report written"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(json_file));

  std::string explain_output =
      Run({"explain", "--net=" + net_file, "--company=C0000"});
  EXPECT_NE(explain_output.find("Preliminary analysis: C0000"),
            std::string::npos);

  Status status;
  Run({"explain", "--net=" + net_file, "--company=NoSuch"}, &status);
  EXPECT_TRUE(status.IsNotFound());
  Run({"explain", "--net=" + net_file, "--company=L0000"}, &status);
  // Person node (InvalidArgument), or NotFound when L0000 was merged
  // into a kinship syndicate and carries a brace label.
  EXPECT_TRUE(status.IsInvalidArgument() || status.IsNotFound());
}

TEST_F(CliTest, ScreenSingleAndPairsFile) {
  std::string data_dir = dir_ + "/data";
  std::string net_file = dir_ + "/net.edges";
  Run({"gen", "--out=" + data_dir, "--companies=80", "--seed=13"});
  Run({"fuse", "--data=" + data_dir, "--out=" + net_file});

  std::string single = Run({"screen", "--net=" + net_file,
                            "--seller=C0000", "--buyer=C0001"});
  EXPECT_TRUE(single.find("SUSPICIOUS") != std::string::npos ||
              single.find("clear") != std::string::npos);
  EXPECT_NE(single.find("relationship(s) suspicious"), std::string::npos);

  std::string pairs_file = dir_ + "/pairs.csv";
  {
    std::ofstream out(pairs_file);
    out << "C0000,C0001\nC0002,C0003\n";
  }
  std::string batch = Run({"screen", "--net=" + net_file,
                           "--pairs=" + pairs_file});
  EXPECT_NE(batch.find("of 2 relationship(s)"), std::string::npos);

  Status status;
  Run({"screen", "--net=" + net_file}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"screen", "--net=" + net_file, "--seller=C0000", "--buyer=Nope"},
      &status);
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(CliTest, MissingRequiredFlagsAreErrors) {
  Status status;
  Run({"gen"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"fuse", "--data=x"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"detect"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"stats"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"export", "--net=x"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  // Fusion is serial: fuse and build take no --threads.
  for (const char* command : {"fuse", "build"}) {
    Run({command, "--data=x", "--out=y", "--threads=2"}, &status);
    EXPECT_TRUE(status.IsInvalidArgument()) << command;
    EXPECT_NE(status.message().find("--threads"), std::string::npos)
        << command;
  }
}

TEST_F(CliTest, BadFormatRejected) {
  std::string data_dir = dir_ + "/data";
  std::string net_file = dir_ + "/net.edges";
  Run({"gen", "--out=" + data_dir, "--companies=40", "--seed=2"});
  Run({"fuse", "--data=" + data_dir, "--out=" + net_file});
  Status status;
  Run({"export", "--net=" + net_file, "--format=png",
       "--out=" + dir_ + "/x"},
      &status);
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST_F(CliTest, DetectOnMissingFileFails) {
  Status status;
  Run({"detect", "--net=/no/such/file"}, &status);
  EXPECT_TRUE(status.IsIOError());
}

TEST_F(CliTest, RunReportAndTraceOutputs) {
  std::string data_dir = dir_ + "/data";
  std::string net_file = dir_ + "/net.edges";
  Run({"gen", "--out=" + data_dir, "--companies=100", "--p=0.02",
       "--plant=8", "--seed=21"});

  std::string fuse_report = dir_ + "/fuse_report.json";
  std::string fuse_trace = dir_ + "/fuse_trace.json";
  std::string fuse_output =
      Run({"fuse", "--data=" + data_dir, "--out=" + net_file,
           "--report=" + fuse_report, "--trace-out=" + fuse_trace});
  EXPECT_NE(fuse_output.find("run report written"), std::string::npos);
  EXPECT_NE(fuse_output.find("trace written"), std::string::npos);

  ExpectTimedReport(fuse_report, "fuse");
  std::string report_json = ReadFileToString(fuse_report);
  EXPECT_NE(report_json.find("\"fusion\""), std::string::npos);
  std::string trace_json = ReadFileToString(fuse_trace);
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"fuse\""), std::string::npos);

  std::string detect_report = dir_ + "/detect_report.json";
  std::string detect_trace = dir_ + "/detect_trace.json";
  Run({"detect", "--net=" + net_file, "--report=" + detect_report,
       "--trace-out=" + detect_trace, "--top=3"});
  ExpectTimedReport(detect_report, "detect");
  report_json = ReadFileToString(detect_report);
  EXPECT_NE(report_json.find("\"slowest_subtpiins\""), std::string::npos);
  EXPECT_NE(report_json.find("\"metrics\""), std::string::npos);
  trace_json = ReadFileToString(detect_trace);
  EXPECT_NE(trace_json.find("\"segment\""), std::string::npos);

  // The remaining report-writing commands stamp the same wall clock.
  std::string build_report = dir_ + "/build_report.json";
  Run({"build", "--data=" + data_dir, "--out=" + dir_ + "/net.snap",
       "--report=" + build_report});
  ExpectTimedReport(build_report, "build");
  ExpectSnapshotFiguresAreLaps(build_report, {"load_csv", "fuse"});
  const std::string edge_build_report = dir_ + "/edge_build_report.json";
  Run({"build", "--net=" + net_file, "--out=" + dir_ + "/edges.snap",
       "--report=" + edge_build_report});
  ExpectSnapshotFiguresAreLaps(edge_build_report, {"load_net"});
  const std::string shard_dir = dir_ + "/shards";
  std::string shard_build_report = dir_ + "/shard_build_report.json";
  Run({"shard", "build", "--data=" + data_dir, "--out=" + shard_dir,
       "--shards=3", "--report=" + shard_build_report});
  ExpectTimedReport(shard_build_report, "shard_build");
  std::string shard_detect_report = dir_ + "/shard_detect_report.json";
  Run({"shard", "detect", "--dir=" + shard_dir,
       "--report=" + shard_detect_report});
  ExpectTimedReport(shard_detect_report, "shard_detect");
  std::string shard_merge_report = dir_ + "/shard_merge_report.json";
  Run({"shard", "merge", "--dir=" + shard_dir,
       "--out=" + dir_ + "/merged.txt", "--report=" + shard_merge_report});
  ExpectTimedReport(shard_merge_report, "shard_merge");

  // Unwritable report path surfaces as an IO error, not silence.
  Status status;
  Run({"detect", "--net=" + net_file, "--report=/no/such/dir/r.json"},
      &status);
  EXPECT_TRUE(status.IsIOError());
}

TEST_F(CliTest, LogLevelFlagIsConsumedAnywhere) {
  std::string data_dir = dir_ + "/data";
  Run({"gen", "--out=" + data_dir, "--companies=40", "--seed=2",
       "--log-level=warning"});
  EXPECT_TRUE(std::filesystem::exists(data_dir + "/persons.csv"));

  // Space-separated form, before the command.
  std::string net_file = dir_ + "/net.edges";
  Run({"--log-level", "error", "fuse", "--data=" + data_dir,
       "--out=" + net_file});
  EXPECT_TRUE(std::filesystem::exists(net_file));
  SetLogLevel(LogLevel::kInfo);

  Status status;
  Run({"stats", "--net=" + net_file, "--log-level=loud"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("log-level"), std::string::npos);
  Run({"stats", "--net=" + net_file, "--log-level"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  // Every occurrence is checked, not only the last one that wins.
  Run({"stats", "--net=" + net_file, "--log-level=loud", "--log-level=info"},
      &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(),
            "unknown --log-level: loud (expected debug|info|warning|error)");
  SetLogLevel(LogLevel::kInfo);
  // The other global flags share the consumer and its missing-value text.
  for (const std::string flag : {"--log-json", "--failpoints"}) {
    Run({"stats", "--net=" + net_file, flag}, &status);
    EXPECT_TRUE(status.IsInvalidArgument()) << flag;
    EXPECT_EQ(status.message(), flag + " requires a value");
  }
}

}  // namespace
}  // namespace tpiin
