// Resilience of the serve daemon: injected faults at the serve.*
// failpoints leave the server serving, malformed and truncated input
// costs only the offending request/connection, and SIGTERM during
// in-flight traffic drains and exits 0 (the CLI contract).

#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/failpoint.h"
#include "datagen/worked_example.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "tests/serve/test_client.h"

namespace tpiin {
namespace {

class ServeResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Clear();
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_srvres_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
    snapshot_path_ = dir_ + "/net.snap";
    Status written = WriteSnapshot(BuildWorkedExampleTpiin(), snapshot_path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
  }
  void TearDown() override {
    Failpoints::Clear();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Server> StartServer() {
    ServeOptions options;
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

TEST_F(ServeResilienceTest, HandleFaultErrorsOneRequestServerSurvives) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(Failpoints::Configure("serve.handle:error@1").ok());

  TestClient client = Connect(*server);
  Result<Response> faulted = client.RoundTrip("groups");
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->status, "error");
  EXPECT_NE(faulted->error.find("serve.handle"), std::string::npos);

  // Same connection, next request: served normally.
  Result<Response> next = client.RoundTrip("groups");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status, "ok") << next->error;
  EXPECT_FALSE(next->payload.empty());

  server->Shutdown();
  ServeSummary summary = server->Wait();
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.ok, 1u);
}

TEST_F(ServeResilienceTest, ReadFaultKillsOneConnectionServerSurvives) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(Failpoints::Configure("serve.read:ioerror@1").ok());

  TestClient victim = Connect(*server);
  ASSERT_TRUE(victim.SendLine("healthz").ok());
  // The injected read fault severs this connection without a response.
  EXPECT_FALSE(victim.ReadLine().ok());

  // A fresh connection is served normally.
  TestClient survivor = Connect(*server);
  Result<Response> resp = survivor.RoundTrip("healthz");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "ok");

  server->Shutdown();
  ServeSummary summary = server->Wait();
  EXPECT_GE(summary.read_errors, 1u);
}

TEST_F(ServeResilienceTest, AcceptFaultDropsOneConnectionServerSurvives) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(Failpoints::Configure("serve.accept:error@1").ok());

  // The first accepted connection is closed immediately.
  TestClient dropped = Connect(*server);
  EXPECT_FALSE(dropped.RoundTrip("healthz").ok());

  // The acceptor is still alive: the next connection is served.
  TestClient next = Connect(*server);
  Result<Response> resp = next.RoundTrip("healthz");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "ok");
}

TEST_F(ServeResilienceTest, MalformedRequestKeepsConnection) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);

  Result<Response> bad = client.RoundTrip(R"({"verb": "groups", oops})");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status, "error");
  EXPECT_NE(bad->error.find("malformed"), std::string::npos) << bad->error;

  Result<Response> good = client.RoundTrip("healthz");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->status, "ok");
}

TEST_F(ServeResilienceTest, MidLineDisconnectLeavesServerServing) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);

  {
    TestClient rude = Connect(*server);
    ASSERT_TRUE(rude.SendRaw(R"({"verb": "gro)").ok());
    // Destructor closes mid-line; the server sees EOF with a partial
    // buffer and just drops it.
  }

  TestClient polite = Connect(*server);
  Result<Response> resp = polite.RoundTrip("groups");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "ok") << resp->error;
}

TEST_F(ServeResilienceTest, OverlongRequestLineIsRejected) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);

  // Default cap is 1 MiB; a longer line without a newline must be
  // refused (error response, connection closed), not buffered forever.
  // Exactly cap + 1 bytes: the server consumes every byte before it
  // errors out, so the close is a clean FIN and the error response is
  // never torn down by an RST.
  std::string huge((1 << 20) + 1, 'x');
  ASSERT_TRUE(client.SendRaw(huge).ok());
  Result<std::string> line = client.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  Result<Response> resp = ParseResponseLine(*line);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "error");
  EXPECT_NE(resp->error.find("bytes"), std::string::npos);

  TestClient next = Connect(*server);
  EXPECT_TRUE(next.RoundTrip("healthz").ok());
}

TEST_F(ServeResilienceTest, SigtermDuringInFlightDrainsAndExitsZero) {
  // The full CLI contract, in process: RunCli("serve", ...) on a
  // thread, traffic in flight, raise(SIGTERM) → graceful drain, exit
  // code 0, the shutdown summary on stdout.
  const std::string port_file = dir_ + "/port.txt";
  std::ostringstream cli_out;
  int exit_code = -1;
  Status cli_status;
  std::thread serve_thread([&] {
    cli_status = RunCli({"serve", "--snapshot=" + snapshot_path_,
                         "--port=0", "--port-file=" + port_file},
                        cli_out, &exit_code);
  });

  // Wait for readiness (the port file is written before the ready
  // line).
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

  Result<TestClient> connected = TestClient::Connect(port);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  TestClient client = std::move(*connected);
  Result<Response> resp = client.RoundTrip("groups");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, "ok") << resp->error;

  raise(SIGTERM);
  serve_thread.join();

  EXPECT_TRUE(cli_status.ok()) << cli_status.ToString();
  EXPECT_EQ(exit_code, 0);
  const std::string output = cli_out.str();
  EXPECT_NE(output.find("serving on 127.0.0.1:"), std::string::npos)
      << output;
  EXPECT_NE(output.find("shutdown: "), std::string::npos) << output;
  EXPECT_NE(output.find("1 ok"), std::string::npos) << output;

  // The held connection was drained, not leaked.
  EXPECT_FALSE(client.RoundTrip("healthz").ok());
}

TEST_F(ServeResilienceTest, ShortIoFailpointsPreserveByteIdentity) {
  // serve.io.read.short / serve.io.write.short with an always-fire
  // policy force every recv to 1 byte granularity and every send to
  // 1-byte chunks. Reassembly must be exact: the groups payload stays
  // byte-identical to the clean-path payload.
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);

  std::string clean;
  {
    TestClient client = Connect(*server);
    Result<Response> resp = client.RoundTrip("groups");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->status, "ok") << resp->error;
    clean = resp->payload;
    ASSERT_FALSE(clean.empty());
  }

  ASSERT_TRUE(Failpoints::Configure("serve.io.read.short:error,"
                                    "serve.io.write.short:error")
                  .ok());
  TestClient shorted = Connect(*server);
  Result<Response> resp = shorted.RoundTrip("groups");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, "ok") << resp->error;
  EXPECT_EQ(resp->payload, clean);
  EXPECT_GE(Failpoints::HitCount("serve.io.write.short"), clean.size());
}

TEST_F(ServeResilienceTest, EintrFailpointsRetryTransparently) {
  // One injected EINTR per ReadLine/WriteWire call even under an
  // always-fire policy: the retry must be invisible to the client.
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(Failpoints::Configure("serve.io.read.eintr:error,"
                                    "serve.io.write.eintr:error")
                  .ok());

  TestClient client = Connect(*server);
  for (int i = 0; i < 3; ++i) {
    Result<Response> resp = client.RoundTrip("healthz");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, "ok");
  }
}

TEST_F(ServeResilienceTest, CachedGroupsWireIsExactUnderShortAndEintrWrites) {
  // The cached full `groups` leaves as head + shared body + tail in
  // one vectored write; 1-byte short writes walk the cursor through
  // all three parts, and an injected EINTR must be retried. Either way
  // the wire line is byte-identical to the clean one (only the request
  // serial in "req" differs, and it is the same length).
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client = Connect(*server);
  ASSERT_TRUE(client.SendLine("groups").ok());
  Result<std::string> clean = client.ReadLine();  // Cold; renders.
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_NE(clean->find("\"req\":\"c1-r1\""), std::string::npos) << *clean;

  const char* policies[] = {"serve.io.write.short:error",
                            "serve.io.write.eintr:error"};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(Failpoints::Configure(policies[i]).ok());
    ASSERT_TRUE(client.SendLine("groups").ok());
    Result<std::string> line = client.ReadLine();
    Failpoints::Clear();
    ASSERT_TRUE(line.ok()) << policies[i] << ": " << line.status().ToString();
    std::string expected = *clean;
    const std::string req = "c1-r" + std::to_string(i + 2);
    expected.replace(expected.find("c1-r1"), req.size(), req);
    EXPECT_EQ(*line, expected) << policies[i];
  }
  EXPECT_EQ(server->CurrentGeneration()->service->bundle_cache().hits(), 2u);
}

TEST_F(ServeResilienceTest, ReloadFaultKeepsOldGenerationServing) {
  // An injected reload failure (the serve.reload family the ASan smoke
  // drives) is a rejected candidate like any other: error answer on
  // the verb, old generation untouched, daemon keeps serving.
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(Failpoints::Configure("serve.reload:error@1").ok());

  TestClient client = Connect(*server);
  Result<Response> faulted = client.RoundTrip("reload");
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->status, "error");
  EXPECT_NE(faulted->error.find("serve.reload"), std::string::npos)
      << faulted->error;
  EXPECT_EQ(server->registry().reload_failures(), 1u);
  EXPECT_EQ(server->CurrentGeneration()->id, 1u);

  // The failpoint budget is spent: the next reload verb succeeds (a
  // no-op, same bytes) and normal traffic never blinked.
  Result<Response> retried = client.RoundTrip("reload");
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->status, "ok") << retried->error;
  Result<Response> groups = client.RoundTrip("groups");
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->status, "ok") << groups->error;
}

TEST_F(ServeResilienceTest, ServeFailpointSitesAreRegistered) {
  // The CI failpoint smoke drives serve.*:p0.05 — every site must
  // actually be evaluated on its hot path.
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(Failpoints::Configure("serve.accept:off").ok());

  TestClient client = Connect(*server);
  ASSERT_TRUE(client.RoundTrip("healthz").ok());
  ASSERT_TRUE(client.RoundTrip("reload").ok());

  EXPECT_GE(Failpoints::HitCount("serve.accept"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.read"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.handle"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.io.read.short"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.io.read.eintr"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.io.write.short"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.io.write.eintr"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.reload"), 1u);
  EXPECT_GE(Failpoints::HitCount("serve.reload.open"), 1u);
}

}  // namespace
}  // namespace tpiin
