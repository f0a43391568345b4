// Small helpers shared by the perfbench_driver subcommands.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// 64-bit content digest (FNV-1a constants, folded a word at a time so a
// 100 MB payload hashes in tens of milliseconds). Defined here rather
// than borrowed from the program, so a checksum bug in the program
// cannot also hide a mismatch.
inline uint64_t Digest(std::string_view s) {
  uint64_t h = 1469598103934665603ull ^ s.size();
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * 1099511628211ull;
    h ^= h >> 29;
  }
  for (; i < s.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(s[i])) * 1099511628211ull;
  }
  return h;
}

inline std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = std::move(ss).str();
  return true;
}

// Digest of a file's bytes; "missing" when it cannot be read.
inline std::string FileDigest(const std::string& path) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) return "missing";
  return Hex(Digest(bytes));
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Flat JSON object writer: numbers, strings and arrays of either.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Add(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    Add(key, quoted + "\"");
  }
  void Nums(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
      list += buf;
    }
    Add(key, list + "]");
  }
  void Strs(const std::string& key, const std::vector<std::string>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      list += (i == 0 ? "\"" : ",\"") + values[i] + "\"";
    }
    Add(key, list + "]");
  }
  bool WriteTo(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    out << "{" << body_ << "}\n";
    return static_cast<bool>(out);
  }

 private:
  void Add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",\n";
    body_ += "\"" + key + "\":" + raw;
  }
  std::string body_;
};

// "--key=value" / "--key value" argument map.
inline std::map<std::string, std::string> ParseArgs(int argc, char** argv,
                                                    int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    }
  }
  return args;
}

// One request of the serve traffic plan, written by `reference` and read
// by `serve` and `replay`. kind is explain|groups|rescore|export|whatif;
// class is drill (the first three), export or whatif.
struct PlanEntry {
  std::string cls;
  std::string kind;
  std::string status;  // Expected status.
  std::string digest;  // Expected payload digest.
  std::string line;    // The request line, without the newline.
};

inline std::string FormatPlanEntry(const PlanEntry& e) {
  return e.cls + "\t" + e.kind + "\t" + e.status + "\t" + e.digest + "\t" +
         e.line + "\n";
}

inline bool ReadPlan(const std::string& path, std::vector<PlanEntry>* plan) {
  std::ifstream in(path);
  if (!in) return false;
  std::string row;
  while (std::getline(in, row)) {
    std::vector<std::string> f;
    size_t pos = 0;
    for (int k = 0; k < 4; ++k) {
      size_t tab = row.find('\t', pos);
      if (tab == std::string::npos) return false;
      f.push_back(row.substr(pos, tab - pos));
      pos = tab + 1;
    }
    PlanEntry e{f[0], f[1], f[2], f[3], row.substr(pos)};
    plan->push_back(std::move(e));
  }
  return !plan->empty();
}

// The serve window's connections: analysts 0 .. kAnalysts-1 send the
// drill traffic, connection kAnalysts the export / what-if pairs.
constexpr int kAnalysts = 2;

struct WindowRequest {
  const PlanEntry* entry;
  size_t round;
  int conn;
};

// The serve window's requests, in the order the in-process replay sends
// them. The window is `rounds` rounds. Each round the background
// connection sends the full `groups` export and one what-if (the
// what-ifs in turn); then each analyst sends its slice of the plan's
// drill sequence: analyst a owns drill[a*n/A, (a+1)*n/A), and round r
// sends the r-th of `rounds` equal parts of it, so every drill request
// is sent once. The socket run sends the analysts' slices of a round
// concurrently. Returns false if the plan lacks a class.
inline bool WindowSequence(const std::vector<PlanEntry>& plan, size_t rounds,
                           std::vector<WindowRequest>* out) {
  std::vector<const PlanEntry*> drill, whatifs;
  const PlanEntry* export_entry = nullptr;
  for (const PlanEntry& e : plan) {
    if (e.cls == "drill") drill.push_back(&e);
    if (e.cls == "export") export_entry = &e;
    if (e.cls == "whatif") whatifs.push_back(&e);
  }
  if (drill.empty() || export_entry == nullptr || whatifs.empty()) return false;
  for (size_t r = 0; r < rounds; ++r) {
    out->push_back({export_entry, r, kAnalysts});
    out->push_back({whatifs[r % whatifs.size()], r, kAnalysts});
    for (int a = 0; a < kAnalysts; ++a) {
      const size_t lo = drill.size() * a / kAnalysts;
      const size_t hi = drill.size() * (a + 1) / kAnalysts;
      for (size_t i = lo + (hi - lo) * r / rounds;
           i < lo + (hi - lo) * (r + 1) / rounds; ++i) {
        out->push_back({drill[i], r, a});
      }
    }
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
