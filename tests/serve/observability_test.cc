// Serve observability end to end: request IDs echoed on the wire and
// monotonic per connection, exactly one NDJSON access-log record per
// answered request (malformed and degraded included) plus one per busy
// refusal, the metrics/slow verbs, metric families bounded by the verb
// table, --metrics-out and --trace-out artifacts, and SIGHUP-driven
// access-log rotation through the CLI.

#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "datagen/worked_example.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "tests/serve/test_client.h"

namespace tpiin {
namespace {

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// The value of a `"key":"..."` string field in a flat NDJSON record
/// ("" when absent). Enough for access-log assertions; the records are
/// produced by FormatLogEvent, which never nests.
std::string JsonStringField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return "";
  const size_t begin = start + needle.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_obs_srv_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
    snapshot_path_ = dir_ + "/net.snap";
    Status written = WriteSnapshot(BuildWorkedExampleTpiin(), snapshot_path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Server> StartServer(ServeOptions options = {}) {
    options.snapshot_path = snapshot_path_;
    options.port = 0;
    Result<std::unique_ptr<Server>> server = Server::Start(options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(*server) : nullptr;
  }

  TestClient Connect(const Server& server) {
    Result<TestClient> client = TestClient::Connect(server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  std::string dir_;
  std::string snapshot_path_;
};

TEST_F(ObservabilityTest, RequestIdsEchoedAndMonotonicPerConnection) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);

  {
    TestClient first = Connect(*server);
    for (int i = 1; i <= 3; ++i) {
      Result<Response> resp = first.RoundTrip("healthz");
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(resp->request_id, "c1-r" + std::to_string(i));
    }
  }
  // The next accepted connection gets the next serial; its sequence
  // restarts at r1.
  TestClient second = Connect(*server);
  Result<Response> resp = second.RoundTrip("groups");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, "c2-r1");
}

TEST_F(ObservabilityTest, AccessLogHasOneRecordPerRequest) {
  ServeOptions options;
  options.access_log_path = dir_ + "/access.ndjson";
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->access_log(), nullptr);

  TestClient client = Connect(*server);
  ASSERT_TRUE(client.RoundTrip("groups").ok());                // ok, miss
  ASSERT_TRUE(client.RoundTrip("groups").ok());                // ok, hit
  ASSERT_TRUE(client.RoundTrip("{not json").ok());             // malformed
  ASSERT_TRUE(client.RoundTrip("groups?max_sub_nodes=2").ok());  // degraded
  ASSERT_TRUE(client.SendLine("").ok());  // Blank keep-alive: no record.
  ASSERT_TRUE(client.RoundTrip("healthz").ok());
  client.Close();
  server->Shutdown();
  server->Wait();

  const std::vector<std::string> lines =
      Lines(ReadFileToString(options.access_log_path));
  ASSERT_EQ(lines.size(), 5u) << ReadFileToString(options.access_log_path);

  // NDJSON: every record is one flat object with the fixed envelope.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_EQ(JsonStringField(line, "component"), "serve") << line;
    EXPECT_EQ(JsonStringField(line, "event"), "request") << line;
    EXPECT_NE(line.find("\"queue_us\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"handle_us\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"bytes\":"), std::string::npos) << line;
  }

  // Request IDs are monotonic on the one connection, and each record
  // carries the request's verb / status / cache outcome.
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(JsonStringField(lines[i], "req"),
              "c1-r" + std::to_string(i + 1));
  }
  EXPECT_EQ(JsonStringField(lines[0], "verb"), "groups");
  EXPECT_EQ(JsonStringField(lines[0], "status"), "ok");
  EXPECT_EQ(JsonStringField(lines[0], "cache"), "miss");
  EXPECT_EQ(JsonStringField(lines[1], "cache"), "hit");
  EXPECT_EQ(JsonStringField(lines[2], "verb"), "malformed");
  EXPECT_EQ(JsonStringField(lines[2], "status"), "error");
  EXPECT_EQ(JsonStringField(lines[2], "level"), "warn");
  EXPECT_EQ(JsonStringField(lines[3], "status"), "degraded");
  EXPECT_EQ(JsonStringField(lines[4], "verb"), "healthz");
  EXPECT_EQ(JsonStringField(lines[4], "cache"), "none");
}

TEST_F(ObservabilityTest, BusyRefusalGetsRefusedRecord) {
  ServeOptions options;
  options.max_inflight = 1;
  options.max_queue = 1;
  options.access_log_path = dir_ + "/access.ndjson";
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  TestClient held1 = Connect(*server);
  TestClient held2 = Connect(*server);
  ASSERT_TRUE(held1.RoundTrip("healthz").ok());
  ASSERT_TRUE(held2.RoundTrip("healthz").ok());

  Result<TestClient> refused = TestClient::Connect(server->port());
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  Result<std::string> line = refused->ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  Result<Response> busy = ParseResponseLine(*line);
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(busy->status, "busy");
  // r0: refused before any request line existed.
  EXPECT_EQ(busy->request_id, "c3-r0");

  held1.Close();
  held2.Close();
  server->Shutdown();
  server->Wait();

  const std::vector<std::string> lines =
      Lines(ReadFileToString(options.access_log_path));
  ASSERT_EQ(lines.size(), 3u);  // Two requests + one refusal.
  const std::string& refusal = lines[2];
  EXPECT_EQ(JsonStringField(refusal, "event"), "refused");
  EXPECT_EQ(JsonStringField(refusal, "req"), "c3-r0");
  EXPECT_EQ(JsonStringField(refusal, "status"), "busy");
  EXPECT_EQ(JsonStringField(refusal, "level"), "warn");
}

TEST_F(ObservabilityTest, MetricsVerbRendersPrometheusFamilies) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);
  ASSERT_TRUE(client.RoundTrip("groups").ok());
  ASSERT_TRUE(client.RoundTrip("groups").ok());

  Result<Response> resp = client.RoundTrip("metrics");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, "ok") << resp->error;
  const std::string& text = resp->payload;

  // Request counters, per-verb latency percentiles, cache counters and
  // the synthesized uptime / RSS / connection families.
  EXPECT_NE(text.find("# TYPE tpiin_serve_requests_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_requests_total 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_requests_groups_total 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tpiin_serve_latency_us_groups histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_latency_us_groups_p50 "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_latency_us_groups_p90 "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_latency_us_groups_p99 "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_cache_bundle_hit_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_uptime_ms "), std::string::npos) << text;
  EXPECT_NE(text.find("tpiin_serve_connections_accepted_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_connections_active 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_process_current_rss_bytes "), std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_queue_us"), std::string::npos) << text;
}

TEST_F(ObservabilityTest, StatsVerbReportsPercentileTable) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);
  ASSERT_TRUE(client.RoundTrip("groups").ok());

  Result<Response> stats = client.RoundTrip("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->status, "ok");
  // The latency table rows are (verb, count, p50, p90, p99, max).
  EXPECT_NE(stats->payload.find("\"latency_us\""), std::string::npos)
      << stats->payload;
  EXPECT_NE(stats->payload.find("\"p50\""), std::string::npos)
      << stats->payload;
  EXPECT_NE(stats->payload.find("\"p99\""), std::string::npos)
      << stats->payload;
}

TEST_F(ObservabilityTest, SlowVerbRanksByHandleTime) {
  ServeOptions options;
  options.slow_requests = 4;
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);
  ASSERT_TRUE(client.RoundTrip("groups").ok());
  ASSERT_TRUE(client.RoundTrip("healthz").ok());

  Result<Response> slow = client.RoundTrip("slow");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(slow->status, "ok") << slow->error;
  const std::string& payload = slow->payload;
  EXPECT_NE(payload.find("\"capacity\": 4"), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"c1-r1\""), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"c1-r2\""), std::string::npos) << payload;
  // The cold groups request dominates healthz: it must rank first and
  // carry its detection-stage breakdown.
  const size_t groups_pos = payload.find("\"verb\": \"groups\"");
  const size_t healthz_pos = payload.find("\"verb\": \"healthz\"");
  ASSERT_NE(groups_pos, std::string::npos) << payload;
  ASSERT_NE(healthz_pos, std::string::npos) << payload;
  EXPECT_LT(groups_pos, healthz_pos);
  EXPECT_NE(payload.find("\"detect_seconds\""), std::string::npos)
      << payload;
}

TEST_F(ObservabilityTest, SlowRingDisabledAtZeroCapacity) {
  ServeOptions options;
  options.slow_requests = 0;
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);
  ASSERT_TRUE(client.RoundTrip("groups").ok());

  Result<Response> slow = client.RoundTrip("slow");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(slow->status, "ok");
  EXPECT_NE(slow->payload.find("\"capacity\": 0"), std::string::npos)
      << slow->payload;
  EXPECT_EQ(slow->payload.find("\"c1-r1\""), std::string::npos)
      << slow->payload;
}

TEST_F(ObservabilityTest, MetricsOutSnapshotWrittenAtShutdown) {
  ServeOptions options;
  options.metrics_out_path = dir_ + "/metrics.prom";
  options.metrics_interval_seconds = 3600;  // Only the final snapshot.
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  {
    TestClient client = Connect(*server);
    ASSERT_TRUE(client.RoundTrip("groups").ok());
  }
  server->Shutdown();
  server->Wait();

  const std::string text = ReadFileToString(options.metrics_out_path);
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("tpiin_serve_requests_total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tpiin_serve_latency_us_groups_p99 "),
            std::string::npos)
      << text;
}

TEST_F(ObservabilityTest, TraceOutCapturesPerRequestSpans) {
  ServeOptions options;
  options.trace_out_path = dir_ + "/trace.json";
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  {
    TestClient client = Connect(*server);
    ASSERT_TRUE(client.RoundTrip("groups").ok());
    ASSERT_TRUE(client.RoundTrip("healthz").ok());
  }
  server->Shutdown();
  server->Wait();

  const std::string trace = ReadFileToString(options.trace_out_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
#if TPIIN_OBS_ENABLED
  EXPECT_NE(trace.find("serve.request"), std::string::npos) << trace;
  EXPECT_NE(trace.find("serve.groups"), std::string::npos) << trace;
  EXPECT_NE(trace.find("serve.healthz"), std::string::npos) << trace;
#endif
}

/// The value of the sample line `name value` in Prometheus text, or -1
/// when absent.
double SampleValue(const std::string& text, const std::string& name) {
  for (const std::string& line : Lines(text)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1;
}

TEST_F(ObservabilityTest, UnknownVerbsMintNoMetricFamilies) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);

  // Two of these collide with the synthesized status counters
  // (serve.requests.ok / .errors), two would be brand-new families.
  const std::vector<std::string> unknown = {"ok", "errors", "x1", "x2"};
  for (const std::string& verb : unknown) {
    Result<Response> resp = client.RoundTrip("{\"verb\": \"" + verb + "\"}");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, "error");
    EXPECT_EQ(resp->verb, verb);
    EXPECT_NE(resp->error.find("unknown verb: " + verb + " "),
              std::string::npos)
        << resp->error;
  }

  Result<Response> metrics = client.RoundTrip("metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->status, "ok") << metrics->error;
  const std::string& text = metrics->payload;

  // A well-formed exposition defines each family once.
  std::set<std::string> types;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    EXPECT_TRUE(types.insert(line).second) << "duplicate: " << line;
  }
  EXPECT_EQ(text.find("tpiin_serve_requests_x1_total"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("tpiin_serve_latency_us_x1"), std::string::npos)
      << text;
  EXPECT_EQ(SampleValue(text, "tpiin_serve_requests_ok_total"), 0);
  EXPECT_EQ(SampleValue(text, "tpiin_serve_requests_errors_total"), 4);
  // Unknown verbs share the fixed `other` bucket.
  EXPECT_EQ(SampleValue(text, "tpiin_serve_requests_other_total"), 4);
  EXPECT_EQ(SampleValue(text, "tpiin_serve_latency_us_other_count"), 4);

  // Every table verb's counter exists from the first scrape, reload
  // included before any reload ran; with the two catch-alls they
  // partition the request total (this scrape counts itself).
  EXPECT_NE(text.find("\ntpiin_serve_requests_reload_total 0\n"),
            std::string::npos)
      << text;
  double per_verb = 0;
  for (const ServeVerb& verb : kServeVerbs) {
    const double value = SampleValue(
        text, "tpiin_serve_requests_" + std::string(verb.name) + "_total");
    EXPECT_GE(value, 0) << verb.name;
    per_verb += value;
  }
  per_verb += SampleValue(text, "tpiin_serve_requests_other_total");
  per_verb += SampleValue(text, "tpiin_serve_requests_malformed_total");
  EXPECT_EQ(per_verb, SampleValue(text, "tpiin_serve_requests_total"));
  EXPECT_EQ(per_verb, 5);

  // The stats latency table lists only buckets that saw traffic.
  Result<Response> stats = client.RoundTrip("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->status, "ok") << stats->error;
  EXPECT_NE(stats->payload.find("[\"other\", 4,"), std::string::npos)
      << stats->payload;
  EXPECT_EQ(stats->payload.find("[\"reload\","), std::string::npos)
      << stats->payload;
  EXPECT_EQ(stats->payload.find("\"x1\""), std::string::npos)
      << stats->payload;
}

TEST_F(ObservabilityTest, EveryTableVerbIsDispatchedAndTraced) {
  ServeOptions options;
  options.trace_out_path = dir_ + "/trace.json";
  std::unique_ptr<Server> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  {
    TestClient client = Connect(*server);
    for (const ServeVerb& verb : kServeVerbs) {
      Result<Response> resp = client.RoundTrip(std::string(verb.name));
      ASSERT_TRUE(resp.ok()) << verb.name << ": " << resp.status().ToString();
      EXPECT_EQ(resp->verb, verb.name);
      EXPECT_EQ(resp->error.find("unknown verb"), std::string::npos)
          << verb.name << ": " << resp->error;
    }
  }
  server->Shutdown();
  server->Wait();

  const std::string trace = ReadFileToString(options.trace_out_path);
  ASSERT_FALSE(trace.empty());
#if TPIIN_OBS_ENABLED
  for (const ServeVerb& verb : kServeVerbs) {
    EXPECT_NE(trace.find("\"name\":\"" + std::string(verb.span) + "\""),
              std::string::npos)
        << verb.span;
  }
#endif
}

TEST_F(ObservabilityTest, AccessLogOpenFailureFailsStartup) {
  ServeOptions options;
  options.snapshot_path = snapshot_path_;
  options.access_log_path = dir_ + "/no/such/dir/access.ndjson";
  Result<std::unique_ptr<Server>> server = Server::Start(options);
  ASSERT_FALSE(server.ok());
  EXPECT_TRUE(server.status().IsIOError()) << server.status().ToString();
}

TEST_F(ObservabilityTest, SighupRotatesAccessLogThroughCli) {
  // The CLI contract end to end: serve with --access-log, rotate the
  // file externally, raise(SIGHUP) — the sink reopens and the next
  // request lands in a fresh file. No event is lost on either side.
  const std::string port_file = dir_ + "/port.txt";
  const std::string access_log = dir_ + "/access.ndjson";
  std::ostringstream cli_out;
  int exit_code = -1;
  Status cli_status;
  std::thread serve_thread([&] {
    cli_status = RunCli({"serve", "--snapshot=" + snapshot_path_,
                         "--port=0", "--port-file=" + port_file,
                         "--access-log=" + access_log},
                        cli_out, &exit_code);
  });

  uint16_t port = 0;
  for (int i = 0; i < 500 && port == 0; ++i) {
    std::ifstream in(port_file);
    int value = 0;
    if (in >> value && value > 0) {
      port = static_cast<uint16_t>(value);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(port, 0) << "server never became ready";

  {
    Result<TestClient> client = TestClient::Connect(port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->RoundTrip("healthz").ok());
  }
  // The response is written before the access-log event: wait for the
  // event to land before rotating, or the rename races the write.
  bool logged = false;
  for (int i = 0; i < 500 && !logged; ++i) {
    logged = ReadFileToString(access_log).find("healthz") !=
             std::string::npos;
    if (!logged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(logged) << "healthz event never reached the access log";

  std::filesystem::rename(access_log, access_log + ".1");
  raise(SIGHUP);

  {
    Result<TestClient> client = TestClient::Connect(port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->RoundTrip("groups").ok());
  }

  raise(SIGTERM);
  serve_thread.join();
  EXPECT_TRUE(cli_status.ok()) << cli_status.ToString();
  EXPECT_EQ(exit_code, 0);

  const std::string rotated = ReadFileToString(access_log + ".1");
  const std::string fresh = ReadFileToString(access_log);
  EXPECT_NE(rotated.find("\"verb\":\"healthz\""), std::string::npos)
      << rotated;
  EXPECT_NE(fresh.find("\"verb\":\"groups\""), std::string::npos) << fresh;
  EXPECT_EQ(fresh.find("\"verb\":\"healthz\""), std::string::npos) << fresh;
}

}  // namespace
}  // namespace tpiin
