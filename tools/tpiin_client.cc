// Client for the `tpiin serve` daemon.
//
// One-shot (default): connects, sends one request line, prints the
// response and exits.
//
//   tpiin_client --port=PORT [--host=ADDR] 'groups?company=C0017'
//   tpiin_client --port=PORT '{"verb": "explain", "company": "C0017"}'
//
// By default the response *payload* is printed raw to stdout (so
// `tpiin_client ... groups` emits the exact susGroup.txt bytes and CI
// can diff it against the batch artifact); --raw prints the full JSON
// response line instead. Exit code: 0 for status ok, 2 for degraded,
// 3 for busy, 1 for error (server-side or transport).
//
// --retries=N retries the two transient outcomes — connect refusal
// (daemon not up yet, listen backlog full) and a `busy` response
// (admission control at capacity) — with exponential backoff plus
// ±25% jitter starting at --backoff-ms, so N scripted clients hitting
// a saturated daemon spread out instead of stampeding in lockstep.
// Definite outcomes (ok, degraded, error) are never retried.
//
// Watch mode: --watch=MS polls the `metrics` verb over one persistent
// connection (reconnecting if the daemon's idle timeout closes it) and
// renders a one-line summary per tick — for eyeballing a running
// daemon:
//
//   tpiin_client --port=PORT --watch=1000 [--watch-count=N]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/flags.h"
#include "serve/protocol.h"

namespace {

int Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "tpiin_client: %s: %s\n", what, detail.c_str());
  return 1;
}

/// Connects with the given receive timeout; -1 on failure (*error set).
int ConnectTo(const std::string& host, int64_t port, int64_t timeout_ms,
              std::string* error) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host: " + host;
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return -1;
  }
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    *error = std::strerror(errno);
    close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request line and reads one response line. False on any
/// transport failure (the caller reconnects or reports).
bool RoundTrip(int fd, const std::string& request, std::string* reply,
               std::string* error) {
  std::string line = request;
  line += '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = send(fd, line.data() + sent, line.size() - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  reply->clear();
  // Only each new chunk is searched for the terminator, so a
  // multi-megabyte answer costs linear time, not a rescan per recv.
  char chunk[64 << 10];
  while (true) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      *error = "connection closed before a full response line";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    const size_t got = static_cast<size_t>(n);
    const char* newline =
        static_cast<const char*>(std::memchr(chunk, '\n', got));
    if (newline != nullptr) {
      reply->append(chunk, static_cast<size_t>(newline - chunk));
      return true;
    }
    reply->append(chunk, got);
  }
}

/// Label-free samples of a Prometheus text payload: "name value" lines
/// (comments and labeled samples like _bucket{le=...} are skipped —
/// the watch line only needs the scalar families).
std::map<std::string, double> ParsePrometheusScalars(
    const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.find('{') != std::string::npos) continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// One watch tick's line: uptime, request totals (and the delta since
/// the previous tick), connections, RSS, and the busiest verb's latency
/// percentiles.
void PrintWatchLine(int64_t tick, const std::map<std::string, double>& m,
                    double prev_requests, bool have_prev) {
  const double requests = Get(m, "tpiin_serve_requests_total");
  std::string delta;
  if (have_prev) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (+%.0f)", requests - prev_requests);
    delta = buf;
  }
  // The busiest verb carries the representative latency numbers.
  const std::string prefix = "tpiin_serve_latency_us_";
  std::string busiest;
  double busiest_count = 0;
  for (const auto& [name, value] : m) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string suffix = "_count";
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string verb = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (value > busiest_count) {
      busiest_count = value;
      busiest = verb;
    }
  }
  std::string latency;
  if (!busiest.empty()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " | %s n=%.0f p50=%.0fus p99=%.0fus",
                  busiest.c_str(), busiest_count,
                  Get(m, prefix + busiest + "_p50"),
                  Get(m, prefix + busiest + "_p99"));
    latency = buf;
  }
  std::printf(
      "tick %lld | up %.1fs | req %.0f%s ok=%.0f deg=%.0f busy=%.0f "
      "err=%.0f | conn=%.0f inflight=%.0f | rss %.1f MB%s\n",
      static_cast<long long>(tick), Get(m, "tpiin_serve_uptime_ms") / 1e3,
      requests, delta.c_str(), Get(m, "tpiin_serve_requests_ok_total"),
      Get(m, "tpiin_serve_requests_degraded_total"),
      Get(m, "tpiin_serve_requests_busy_total"),
      Get(m, "tpiin_serve_requests_errors_total"),
      Get(m, "tpiin_serve_connections_active"),
      Get(m, "tpiin_serve_inflight"),
      Get(m, "tpiin_process_current_rss_bytes") / (1024.0 * 1024.0),
      latency.c_str());
  std::fflush(stdout);
}

/// Sleep before retry attempt N (0-based): backoff_ms doubled per
/// attempt, capped at 5s, with ±25% jitter so a fleet of scripted
/// clients that all hit `busy` at once doesn't retry in lockstep.
void BackoffSleep(int64_t backoff_ms, int64_t attempt, std::mt19937* rng) {
  double delay = static_cast<double>(backoff_ms);
  for (int64_t i = 0; i < attempt && delay < 5000.0; ++i) delay *= 2.0;
  delay = std::min(delay, 5000.0);
  std::uniform_real_distribution<double> jitter(0.75, 1.25);
  delay *= jitter(*rng);
  usleep(static_cast<useconds_t>(std::max(1.0, delay) * 1000.0));
}

int RunWatch(const std::string& host, int64_t port, int64_t timeout_ms,
             int64_t watch_ms, int64_t watch_count) {
  int fd = -1;
  std::string error;
  double prev_requests = 0;
  bool have_prev = false;
  for (int64_t tick = 1; watch_count <= 0 || tick <= watch_count; ++tick) {
    if (fd < 0) {
      fd = ConnectTo(host, port, timeout_ms, &error);
      if (fd < 0) return Fail("connect", error);
    }
    std::string reply;
    if (!RoundTrip(fd, "metrics", &reply, &error)) {
      // The daemon's idle timeout may have severed us between ticks;
      // one reconnect per tick keeps the watch alive across it.
      close(fd);
      fd = ConnectTo(host, port, timeout_ms, &error);
      if (fd < 0) return Fail("reconnect", error);
      if (!RoundTrip(fd, "metrics", &reply, &error)) {
        close(fd);
        return Fail("metrics", error);
      }
    }
    tpiin::Result<tpiin::Response> parsed = tpiin::ParseResponseLine(reply);
    if (!parsed.ok()) {
      close(fd);
      return Fail("response", parsed.status().ToString());
    }
    if (!parsed->ok()) {
      close(fd);
      return Fail("metrics verb", parsed->error);
    }
    const std::map<std::string, double> m =
        ParsePrometheusScalars(parsed->payload);
    PrintWatchLine(tick, m, prev_requests, have_prev);
    prev_requests = Get(m, "tpiin_serve_requests_total");
    have_prev = true;
    if (watch_count > 0 && tick == watch_count) break;
    usleep(static_cast<useconds_t>(watch_ms) * 1000);
  }
  if (fd >= 0) close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tpiin::FlagParser flags;
  flags.DefineString("host", "127.0.0.1", "server address");
  flags.DefineInt64("port", 0, "server port (required)");
  flags.DefineBool("raw", false,
                   "print the full JSON response line, not the payload");
  flags.DefineInt64("timeout-ms", 60000, "receive timeout");
  flags.DefineInt64("retries", 0,
                    "retry connect refusal and busy responses up to N "
                    "times (one-shot mode only)");
  flags.DefineInt64("backoff-ms", 100,
                    "initial retry backoff; doubles per attempt with "
                    "jitter, capped at 5000 ms");
  flags.DefineInt64("watch", 0,
                    "poll the metrics verb every N ms and print one "
                    "summary line per tick (0 = one-shot)");
  flags.DefineInt64("watch-count", 0,
                    "stop after N watch ticks (0 = until killed)");
  tpiin::Status status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail("flags", status.ToString());
  const int64_t port = flags.GetInt64("port");
  const bool watch = flags.GetInt64("watch") > 0;
  if (port <= 0 || port > 65535 ||
      flags.positional().size() != (watch ? 0u : 1u)) {
    std::fprintf(
        stderr,
        "usage: tpiin_client --port=PORT [--host=ADDR] [--raw] REQUEST\n"
        "       tpiin_client --port=PORT --watch=MS [--watch-count=N]\n"
        "  REQUEST is one protocol line, e.g. 'healthz',\n"
        "  'groups?company=C0017' or '{\"verb\": \"stats\"}'\n");
    return 1;
  }
  if (watch) {
    return RunWatch(flags.GetString("host"), port,
                    flags.GetInt64("timeout-ms"), flags.GetInt64("watch"),
                    flags.GetInt64("watch-count"));
  }
  const std::string& request = flags.positional()[0];
  const int64_t retries = std::max<int64_t>(0, flags.GetInt64("retries"));
  const int64_t backoff_ms =
      std::max<int64_t>(1, flags.GetInt64("backoff-ms"));
  std::mt19937 rng(static_cast<uint32_t>(std::time(nullptr)) ^
                   static_cast<uint32_t>(getpid()));

  std::string error;
  std::string reply;
  tpiin::Result<tpiin::Response> parsed =
      tpiin::Status::Internal("no attempt made");
  for (int64_t attempt = 0;; ++attempt) {
    const int fd = ConnectTo(flags.GetString("host"), port,
                             flags.GetInt64("timeout-ms"), &error);
    if (fd < 0) {
      // Connect refusal is the classic transient: the daemon is still
      // loading its snapshot, or the listen backlog overflowed.
      if (attempt < retries) {
        BackoffSleep(backoff_ms, attempt, &rng);
        continue;
      }
      return Fail("connect", error);
    }
    if (!RoundTrip(fd, request, &reply, &error)) {
      close(fd);
      return Fail("round trip", error);
    }
    close(fd);
    parsed = tpiin::ParseResponseLine(reply);
    if (!parsed.ok()) return Fail("response", parsed.status().ToString());
    // `busy` means admission control shed us; every other status is a
    // definite answer (ok/degraded carry a payload, error is final).
    if (parsed->status != "busy" || attempt >= retries) break;
    BackoffSleep(backoff_ms, attempt, &rng);
  }

  if (flags.GetBool("raw")) {
    std::fwrite(reply.data(), 1, reply.size(), stdout);
    std::fputc('\n', stdout);
  } else {
    if (parsed->status == "ok" || parsed->status == "degraded") {
      std::fwrite(parsed->payload.data(), 1, parsed->payload.size(), stdout);
    } else {
      std::fprintf(stderr, "tpiin_client: %s: %s\n", parsed->status.c_str(),
                   parsed->error.c_str());
    }
  }
  if (parsed->status == "ok") return 0;
  if (parsed->status == "degraded") return 2;
  if (parsed->status == "busy") return 3;
  return 1;
}
