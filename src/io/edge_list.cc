#include "io/edge_list.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

// Edge-list rows are appended to one reused buffer that goes to the
// stream in blocks of about this many bytes.
constexpr size_t kEdgeListFlushBytes = size_t{1} << 16;

template <typename Number, typename... Format>
void AppendNumber(std::string* out, Number value, Format... format) {
  char digits[32];
  const std::to_chars_result end =
      std::to_chars(digits, digits + sizeof(digits), value, format...);
  out->append(digits, static_cast<size_t>(end.ptr - digits));
}

}  // namespace

Status WriteTpiinEdgeList(const std::string& path, const Tpiin& net) {
  TPIIN_FAILPOINT("io.edge_list.write");
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  std::string block;
  block.reserve(kEdgeListFlushBytes * 2);
  auto end_row = [&]() {
    block += '\n';
    if (block.size() >= kEdgeListFlushBytes) {
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
      block.clear();
    }
  };

  block += "tpiin-edge-list v2\nnodes ";
  AppendNumber(&block, net.NumNodes());
  end_row();
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    AppendNumber(&block, v);
    block += net.color(v) == NodeColor::kPerson ? " P " : " C ";
    block += net.Label(v);
    end_row();
  }
  block += "arcs ";
  AppendNumber(&block, net.NumArcs());
  block += ' ';
  AppendNumber(&block, net.num_influence_arcs() + 1);
  end_row();
  for (ArcId id = 0; id < net.NumArcs(); ++id) {
    const Arc arc = net.arc(id);
    AppendNumber(&block, arc.src);
    block += ' ';
    AppendNumber(&block, arc.dst);
    block += ' ';
    AppendNumber(&block, arc.color);
    block += ' ';
    // General format at 17 significant digits is printf("%.17g").
    AppendNumber(&block, net.ArcWeight(id), std::chars_format::general, 17);
    end_row();
  }
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  return file.Commit();
}

Result<Tpiin> ReadTpiinEdgeList(const std::string& path) {
  return ReadTpiinEdgeList(path, IngestOptions{}, nullptr);
}

Result<Tpiin> ReadTpiinEdgeList(const std::string& path,
                                const IngestOptions& options,
                                LoadReport* report) {
  TPIIN_FAILPOINT("io.edge_list.read");
  LoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = LoadReport{};
  IngestSink sink(options, report);

  std::ifstream in(path);
  if (!in.good()) return Status::IOError("cannot open " + path);
  size_t line_number = 0;

  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption(path + ": empty file");
  }
  ++line_number;
  std::string magic(Trim(line));
  bool v2 = magic == "tpiin-edge-list v2";
  if (!v2 && magic != "tpiin-edge-list v1") {
    return Status::Corruption(path + ": bad magic line");
  }

  size_t num_nodes = 0;
  {
    if (!std::getline(in, line)) {
      return Status::Corruption(path + ": missing nodes header");
    }
    ++line_number;
    std::vector<std::string> parts = SplitWhitespace(line);
    if (parts.size() != 2 || parts[0] != "nodes") {
      return Status::Corruption(path + ": bad nodes header: " + line);
    }
    TPIIN_ASSIGN_OR_RETURN(int64_t n, ParseInt64(parts[1]));
    if (n < 0) return Status::Corruption(path + ": negative node count");
    num_nodes = static_cast<size_t>(n);
  }

  // Node rows are structural: ids index the table and later arc rows
  // address nodes by position, so a damaged node row is always fatal
  // (skipping one would silently re-wire every later arc).
  TpiinBuilder builder;
  for (size_t i = 0; i < num_nodes; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption(path + ": truncated node table");
    }
    ++line_number;
    // "<id> <P|C> <label...>"; the label may contain spaces.
    std::istringstream row(line);
    uint64_t id = 0;
    char color = 0;
    row >> id >> color;
    std::string label;
    std::getline(row, label);
    label = std::string(Trim(label));
    if (row.fail() || id != i || (color != 'P' && color != 'C')) {
      return Status::Corruption(path + ": bad node row: " + line);
    }
    if (color == 'P') {
      builder.AddPersonNode(std::move(label));
    } else {
      builder.AddCompanyNode(std::move(label));
    }
    sink.CountLoaded();
  }

  size_t num_arcs = 0;
  size_t first_trading_row = 0;  // 1-based; num_arcs + 1 when none.
  {
    if (!std::getline(in, line)) {
      return Status::Corruption(path + ": missing arcs header");
    }
    ++line_number;
    std::vector<std::string> parts = SplitWhitespace(line);
    if (parts.size() != 3 || parts[0] != "arcs") {
      return Status::Corruption(path + ": bad arcs header: " + line);
    }
    TPIIN_ASSIGN_OR_RETURN(int64_t r, ParseInt64(parts[1]));
    TPIIN_ASSIGN_OR_RETURN(int64_t m, ParseInt64(parts[2]));
    if (r < 0 || m < 1 || m > r + 1) {
      return Status::Corruption(path + ": inconsistent arcs header");
    }
    num_arcs = static_cast<size_t>(r);
    first_trading_row = static_cast<size_t>(m);
  }

  for (size_t i = 0; i < num_arcs; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption(path + ": truncated arc table");
    }
    ++line_number;
    // Arc rows are independent of one another, so a damaged row is
    // recoverable: classify it and let the sink apply the
    // strict/skip/quarantine policy.
    const char* error_class = ingest_error::kParse;
    Status row_status = [&]() -> Status {
      std::vector<std::string> parts = SplitWhitespace(line);
      size_t expected_columns = v2 ? 4u : 3u;
      if (parts.size() != expected_columns) {
        error_class = ingest_error::kColumns;
        return Status::Corruption("bad arc row: " + line);
      }
      Result<int64_t> src = ParseInt64(parts[0]);
      Result<int64_t> dst = ParseInt64(parts[1]);
      Result<int64_t> color = ParseInt64(parts[2]);
      if (!src.ok() || !dst.ok() || !color.ok()) {
        error_class = ingest_error::kBadNumber;
        return Status::Corruption("bad arc row: " + line);
      }
      double weight = 1.0;
      if (v2) {
        Result<double> parsed = ParseDouble(parts[3]);
        if (!parsed.ok()) {
          error_class = ingest_error::kBadNumber;
          return Status::Corruption("bad arc weight: " + line);
        }
        weight = *parsed;
        if (!(weight > 0.0 && weight <= 1.0)) {
          error_class = ingest_error::kBadNumber;
          return Status::Corruption("arc weight out of (0, 1]: " + line);
        }
      }
      if (*src < 0 || *dst < 0 ||
          *src >= static_cast<int64_t>(num_nodes) ||
          *dst >= static_cast<int64_t>(num_nodes)) {
        error_class = ingest_error::kIdRange;
        return Status::Corruption("arc endpoint out of range: " + line);
      }
      bool should_be_influence = (i + 1) < first_trading_row;
      if (should_be_influence != (*color == kArcInfluence)) {
        error_class = ingest_error::kBadEnum;
        return Status::Corruption("arc color disagrees with the m split: " +
                                  line);
      }
      if (*color == kArcInfluence) {
        builder.AddInfluenceArc(static_cast<NodeId>(*src),
                                static_cast<NodeId>(*dst), weight);
      } else if (*color == kArcTrading) {
        builder.AddTradingArc(static_cast<NodeId>(*src),
                              static_cast<NodeId>(*dst));
      } else {
        error_class = ingest_error::kBadEnum;
        return Status::Corruption("unknown arc color: " + line);
      }
      return Status::OK();
    }();
    if (!row_status.ok()) {
      TPIIN_RETURN_IF_ERROR(sink.Reject(path, line_number, line,
                                        error_class, row_status));
      continue;
    }
    sink.CountLoaded();
  }

  TPIIN_RETURN_IF_ERROR(sink.Finish());
  return builder.Build();
}

}  // namespace tpiin
