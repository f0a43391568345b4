// The `serve` subcommand: launches `tpiin serve` as its own process and
// drives it over loopback with a closed-loop load from this one process.
//
// --setups daemons are launched one after another; each goes through
//
//   setup     launch -> port file -> first full `groups` answered, the
//             daemon's time to ready and warm
//   warm      every distinct rescore once, so the drill traffic below
//             is all cache hits
//   measure   its share of the --pairs rounds (WindowSequence in
//             util.h): per round, one background connection sends the
//             full `groups` export and a what-if
//             `groups?company=&max_sub_nodes=K`, then kAnalysts
//             connections send the round's slice of the plan's drill
//             sequence (explain / groups?company= / rescore?sub=)
//   drain     `metrics` read, peak RSS read, SIGTERM
//
// Each request is timed from the line sent to the last byte received;
// its payload is unescaped and digested only after the clock stops. Each
// sample keeps its index in the window sequence, which the in-process
// replay sends in the same order.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

struct Daemon {
  pid_t pid = -1;
  int port = 0;
  std::string log;
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver serve: %s\n", what.c_str());
  std::exit(1);
}

// Starts the daemon with its output in `log`; it is killed if this
// process dies first. Returns once the port file names a port.
Daemon Launch(const std::vector<std::string>& argv, const std::string& port_file,
              const std::string& log) {
  unlink(port_file.c_str());
  Daemon d;
  d.log = log;
  const pid_t parent = getpid();
  d.pid = fork();
  if (d.pid < 0) Fail("fork failed");
  if (d.pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 60) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      d.port = port;
      return d;
    }
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) Fail("daemon exited at start");
    usleep(500);
  }
  kill(d.pid, SIGKILL);
  waitpid(d.pid, nullptr, 0);
  Fail("daemon did not become ready");
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

// SIGTERM (the daemon's drain path), then reads its shutdown summary.
// Returns the error count it reports, or -1 if the drain failed.
long Stop(Daemon* d) {
  if (d->pid < 0) return -1;
  kill(d->pid, SIGTERM);
  int status = 0;
  waitpid(d->pid, &status, 0);
  d->pid = -1;
  std::ifstream in(d->log);
  std::string line;
  long errors = -1;
  while (std::getline(in, line)) {
    // "shutdown: N connection(s), R request(s) — X ok, D degraded, B busy,
    // E error(s)"
    if (line.rfind("shutdown:", 0) != 0) continue;
    size_t end = line.rfind(" error(s)");
    size_t begin = line.rfind(' ', end - 1);
    if (end != std::string::npos && begin != std::string::npos) {
      errors = std::stol(line.substr(begin + 1, end - begin - 1));
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return errors;
}

int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("connect");
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Sample {
  double total_ms = 0;
  double ttfb_ms = 0;
  double bytes = 0;
};

// Sends one request line and reads one response line into `wire`.
bool RoundTrip(int fd, const std::string& line, std::string* wire,
               Sample* sample) {
  const std::string out = line + "\n";
  wire->clear();
  const Clock::time_point start = Clock::now();
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  char buf[1 << 16];
  bool first = true;
  while (true) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (first) {
      sample->ttfb_ms = SecondsSince(start) * 1e3;
      first = false;
    }
    wire->append(buf, static_cast<size_t>(n));
    if (buf[n - 1] == '\n') break;
  }
  sample->total_ms = SecondsSince(start) * 1e3;
  sample->bytes = static_cast<double>(wire->size());
  return true;
}

// Reads a JSON string starting after its opening quote; appends the
// unescaped text to `out` and returns the index after the closing quote.
size_t ReadJsonString(const std::string& s, size_t i, std::string* out) {
  while (i < s.size() && s[i] != '"') {
    if (s[i] != '\\') {  // Copy the run up to the next quote or escape.
      size_t end = s.find_first_of("\"\\", i);
      if (end == std::string::npos) end = s.size();
      out->append(s, i, end - i);
      i = end;
      continue;
    }
    ++i;
    if (i >= s.size()) return std::string::npos;
    char e = s[i++];
    switch (e) {
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 > s.size()) return std::string::npos;
        unsigned cp = static_cast<unsigned>(std::stoul(s.substr(i, 4), nullptr, 16));
        i += 4;
        if (cp < 0x80) {
          out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
      default: out->push_back(e);
    }
  }
  return i < s.size() ? i + 1 : std::string::npos;
}

// The string-valued fields of a flat response object (status, payload,
// req, ...); numbers are skipped.
std::map<std::string, std::string> ParseResponse(const std::string& wire) {
  std::map<std::string, std::string> fields;
  size_t i = wire.find('{');
  if (i == std::string::npos) return fields;
  ++i;
  while (i < wire.size()) {
    while (i < wire.size() && (wire[i] == ' ' || wire[i] == ',')) ++i;
    if (i >= wire.size() || wire[i] != '"') break;
    std::string key;
    i = ReadJsonString(wire, i + 1, &key);
    if (i == std::string::npos) break;
    while (i < wire.size() && (wire[i] == ' ' || wire[i] == ':')) ++i;
    if (i < wire.size() && wire[i] == '"') {
      std::string value;
      i = ReadJsonString(wire, i + 1, &value);
      if (i == std::string::npos) break;
      fields[key] = std::move(value);
    } else {
      while (i < wire.size() && wire[i] != ',' && wire[i] != '}') ++i;
    }
  }
  return fields;
}

bool Matches(const std::string& wire, const PlanEntry& expected,
             std::string* request_id) {
  std::map<std::string, std::string> f = ParseResponse(wire);
  if (request_id != nullptr) *request_id = f["req"];
  return f["status"] == expected.status &&
         Hex(Digest(f["payload"])) == expected.digest;
}

struct ClassLog {
  std::vector<double> total_ms, ttfb_ms, bytes, seq;
  std::vector<std::string> request_ids;
  size_t attempted = 0, failed = 0;
};

// Closed loop on one connection: sends window[i] for each i in
// `indices`, each after the previous answer arrived, and checks every
// answer outside its timing. A broken connection is reopened.
void Drive(int port, int* fd, const std::vector<WindowRequest>& window,
           const std::vector<size_t>& indices, bool keep_ids,
           std::map<std::string, ClassLog>* logs) {
  std::string wire, req;
  for (size_t i : indices) {
    const PlanEntry& e = *window[i].entry;
    ClassLog& log = (*logs)[e.cls];
    Sample s;
    ++log.attempted;
    if (!RoundTrip(*fd, e.line, &wire, &s)) {
      ++log.failed;
      close(*fd);
      *fd = Connect(port);
      continue;
    }
    if (!Matches(wire, e, keep_ids ? &req : nullptr)) ++log.failed;
    log.total_ms.push_back(s.total_ms);
    log.ttfb_ms.push_back(s.ttfb_ms);
    log.bytes.push_back(s.bytes);
    log.seq.push_back(static_cast<double>(i));
    if (keep_ids) log.request_ids.push_back(req);
  }
}

// Counter value from the Prometheus text the `metrics` verb returns.
double Counter(const std::string& text, const std::string& name) {
  size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) return 0;
  return std::stod(text.substr(at + name.size() + 2));
}

}  // namespace

int ServeMain(const std::map<std::string, std::string>& args) {
  auto arg = [&](const char* key) {
    auto it = args.find(key);
    if (it == args.end()) Fail(std::string("missing --") + key);
    return it->second;
  };
  const std::string work = arg("work");
  const int setups = std::stoi(arg("setups"));
  const bool trace = arg("trace") == "1";
  const size_t rounds = std::stoul(arg("pairs"));
  std::vector<PlanEntry> plan;
  if (!ReadPlan(arg("plan"), &plan)) Fail("cannot read the plan");
  std::vector<WindowRequest> window;
  if (rounds == 0 || !WindowSequence(plan, rounds, &window)) {
    Fail("need --pairs > 0 and a plan with drill, export and whatif entries");
  }
  const PlanEntry* export_entry = window[0].entry;
  // turns[r][c]: the window indices connection c sends in round r.
  std::vector<std::vector<std::vector<size_t>>> turns(
      rounds, std::vector<std::vector<size_t>>(kAnalysts + 1));
  for (size_t i = 0; i < window.size(); ++i) {
    turns[window[i].round][window[i].conn].push_back(i);
  }

  std::vector<std::string> argv = {
      arg("tpiin"), "serve", "--snapshot=" + arg("snapshot"), "--port=0",
      "--port-file=" + work + "/port", "--threads=" + arg("threads")};
  if (trace) argv.push_back("--access-log=" + work + "/access.ndjson");

  const char* const kCounters[] = {
      "tpiin_serve_cache_bundle_hit_total", "tpiin_serve_cache_bundle_miss_total",
      "tpiin_serve_cache_hit_total", "tpiin_serve_cache_miss_total",
      "tpiin_serve_requests_busy_total", "tpiin_serve_requests_errors_total",
      "tpiin_serve_requests_degraded_total"};
  std::vector<double> setup_s, cold_groups_s, peak_rss_mb;
  std::map<std::string, double> counters;  // Summed over the daemons.
  size_t setup_failed = 0;
  long daemon_errors = 0;
  std::vector<std::map<std::string, ClassLog>> logs(kAnalysts + 1);
  double drill_seconds = 0;

  // --setups daemons one after another, each on its own share of the
  // window's rounds, so setup and peak-RSS samples span the whole run.
  // Within a round the background connection sends one export / what-if
  // pair alone, then the analysts send the round's share of the drill
  // sequence. Alternating spreads every class's samples over the whole
  // window, so a passing slowdown of the host moves no class's median;
  // keeping the classes apart keeps each one's latency free of the CPU
  // the other burns. They still share the daemon's caches, so what-if
  // entries that evicted the hot bundle would show as slower drills.
  // Fixed request counts make every run measure the same multiset.
  for (int i = 0; i < setups; ++i) {
    // Setup: launch -> port file -> first full `groups` answered.
    const Clock::time_point launched = Clock::now();
    Daemon d = Launch(argv, work + "/port",
                      work + "/serve." + std::to_string(i) + ".log");
    std::string wire;
    Sample s;
    int fd = Connect(d.port);
    if (!RoundTrip(fd, export_entry->line, &wire, &s)) Fail("setup groups");
    setup_s.push_back(SecondsSince(launched));
    cold_groups_s.push_back(s.total_ms / 1e3);
    if (!Matches(wire, *export_entry, nullptr)) ++setup_failed;

    // Warm the rescore cache: every distinct rescore once. explain and
    // groups?company= read the bundle the setup's full `groups` cached.
    std::set<std::string> seen;
    for (const PlanEntry& e : plan) {
      if (e.kind != "rescore" || !seen.insert(e.line).second) continue;
      if (!RoundTrip(fd, e.line, &wire, &s) || !Matches(wire, e, nullptr)) {
        ++setup_failed;
      }
    }
    close(fd);

    std::vector<int> fds;
    for (int c = 0; c <= kAnalysts; ++c) fds.push_back(Connect(d.port));
    for (size_t r = rounds * i / setups; r < rounds * (i + 1) / setups; ++r) {
      Drive(d.port, &fds[kAnalysts], window, turns[r][kAnalysts], trace,
            &logs[kAnalysts]);
      const Clock::time_point drill_start = Clock::now();
      std::vector<std::thread> threads;
      for (int a = 0; a < kAnalysts; ++a) {
        threads.emplace_back([&, a, r] {
          Drive(d.port, &fds[a], window, turns[r][a], trace, &logs[a]);
        });
      }
      for (std::thread& t : threads) t.join();
      drill_seconds += SecondsSince(drill_start);
    }
    for (int c : fds) close(c);

    fd = Connect(d.port);
    if (RoundTrip(fd, "metrics", &wire, &s)) {
      const std::string text = ParseResponse(wire)["payload"];
      for (const char* name : kCounters) counters[name] += Counter(text, name);
    }
    close(fd);
    peak_rss_mb.push_back(PeakRssMb(d.pid));
    const long errors = Stop(&d);
    daemon_errors += errors < 0 ? 1 : errors;
  }

  JsonObject out;
  out.Nums("setup_s", setup_s);
  out.Nums("cold_groups_s", cold_groups_s);
  out.Num("setup_failed", static_cast<double>(setup_failed));
  out.Num("daemon_errors", static_cast<double>(daemon_errors));
  out.Nums("peak_rss_mb", peak_rss_mb);
  out.Num("drill.window_s", drill_seconds);
  std::map<std::string, ClassLog> merged;
  for (auto& per_thread : logs) {
    for (auto& [cls, log] : per_thread) {
      ClassLog& m = merged[cls];
      m.total_ms.insert(m.total_ms.end(), log.total_ms.begin(), log.total_ms.end());
      m.ttfb_ms.insert(m.ttfb_ms.end(), log.ttfb_ms.begin(), log.ttfb_ms.end());
      m.bytes.insert(m.bytes.end(), log.bytes.begin(), log.bytes.end());
      m.seq.insert(m.seq.end(), log.seq.begin(), log.seq.end());
      m.request_ids.insert(m.request_ids.end(), log.request_ids.begin(),
                           log.request_ids.end());
      m.attempted += log.attempted;
      m.failed += log.failed;
    }
  }
  for (const auto& [cls, log] : merged) {
    out.Nums(cls + ".total_ms", log.total_ms);
    out.Nums(cls + ".ttfb_ms", log.ttfb_ms);
    out.Nums(cls + ".bytes", log.bytes);
    out.Nums(cls + ".seq", log.seq);
    out.Num(cls + ".attempted", static_cast<double>(log.attempted));
    out.Num(cls + ".failed", static_cast<double>(log.failed));
    if (trace) out.Strs(cls + ".request_ids", log.request_ids);
  }
  for (const auto& [name, value] : counters) out.Num("metrics." + name, value);
  return out.WriteTo(arg("out")) ? 0 : 1;
}

}  // namespace perfbench
