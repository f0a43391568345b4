#include "shard/plan.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "graph/union_find.h"

namespace tpiin {

namespace {

Status RowError(const std::string& path, size_t line,
                const std::string& what) {
  return Status::Corruption(
      StringPrintf("%s:%zu: %s", path.c_str(), line, what.c_str()));
}

// Strict per-row scan of one CSV table: malformed rows are fatal (the
// planner must see exactly the rows the router and the per-shard loads
// will see; resilience policies belong to the single-process loader).
Status ScanTable(const std::string& path,
                 const std::vector<std::string>& header,
                 const std::function<Status(const CsvRow&)>& handler) {
  CsvFileReader reader(path);
  TPIIN_RETURN_IF_ERROR(reader.status());
  TPIIN_RETURN_IF_ERROR(reader.ExpectHeader(header));
  CsvRow row;
  while (reader.Next(&row)) {
    if (!row.parse.ok()) return row.parse;
    if (row.fields.size() != header.size()) {
      return RowError(path, row.line_number,
                      StringPrintf("expected %zu columns, found %zu",
                                   header.size(), row.fields.size()));
    }
    TPIIN_RETURN_IF_ERROR(handler(row));
  }
  return reader.status();
}

Result<int64_t> ParseId(std::string_view field, const std::string& path,
                        size_t line) {
  Result<int64_t> value = ParseInt64(field);
  if (!value.ok() || *value < 0) {
    return RowError(path, line, "bad id: " + std::string(field));
  }
  return value;
}

}  // namespace

Status ShardIdIndex::Add(int64_t file_id) {
  if (dense_) {
    if (file_id == static_cast<int64_t>(next_)) {
      ++next_;
      return Status::OK();
    }
    // First non-sequential id: fall back to the hash map.
    map_.reserve(next_ + 1);
    for (uint64_t i = 0; i < next_; ++i) {
      map_.emplace(static_cast<int64_t>(i), static_cast<uint32_t>(i));
    }
    dense_ = false;
  }
  auto [it, inserted] =
      map_.emplace(file_id, static_cast<uint32_t>(next_));
  if (!inserted) {
    return Status::Corruption(
        StringPrintf("duplicate id %lld", static_cast<long long>(file_id)));
  }
  ++next_;
  return Status::OK();
}

Result<ShardPlan> PlanShards(const std::string& data_dir,
                             const ShardPlanOptions& options) {
  TPIIN_FAILPOINT("shard.plan.scan");
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  ShardPlan plan;
  plan.num_shards = options.num_shards;

  // --- Entity tables: register ids in row order.
  TPIIN_RETURN_IF_ERROR(ScanTable(
      data_dir + "/persons.csv", {"id", "name", "roles"},
      [&](const CsvRow& row) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            int64_t id,
            ParseId(row.fields[0], data_dir + "/persons.csv",
                    row.line_number));
        return plan.person_index.Add(id);
      }));
  TPIIN_RETURN_IF_ERROR(ScanTable(
      data_dir + "/companies.csv", {"id", "name"},
      [&](const CsvRow& row) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            int64_t id,
            ParseId(row.fields[0], data_dir + "/companies.csv",
                    row.line_number));
        return plan.company_index.Add(id);
      }));
  plan.num_persons = plan.person_index.size();
  plan.num_companies = plan.company_index.size();
  const uint64_t num_entities = plan.num_persons + plan.num_companies;
  if (num_entities > 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "entity population exceeds 32-bit id space");
  }

  // Union-find over persons [0, P) and companies [P, P+C); relation rows
  // union their endpoints — exactly the edges that become antecedent
  // connectivity after fusion (interdependence merges persons into
  // syndicates, influence links persons to companies, investment links
  // companies), so these components are in bijection with the fused
  // net's antecedent WCCs.
  UnionFind uf(static_cast<NodeId>(num_entities));
  // Relation rows incident to each entity, the balance weight.
  std::vector<uint32_t> entity_rows(num_entities, 0);
  const uint32_t person_count = static_cast<uint32_t>(plan.num_persons);

  auto resolve = [&](const ShardIdIndex& index, std::string_view field,
                     const char* what, const std::string& path,
                     size_t line) -> Result<uint32_t> {
    Result<int64_t> raw = ParseInt64(field);
    if (!raw.ok()) {
      return RowError(path, line, "bad id: " + std::string(field));
    }
    int64_t dense = index.Lookup(*raw);
    if (dense < 0) {
      return RowError(
          path, line,
          StringPrintf("%s id %s does not refer to a loaded row", what,
                       std::string(field).c_str()));
    }
    return static_cast<uint32_t>(dense);
  };

  {
    const std::string path = data_dir + "/interdependence.csv";
    TPIIN_RETURN_IF_ERROR(ScanTable(
        path, {"person_a", "person_b", "kind"},
        [&](const CsvRow& row) -> Status {
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t a, resolve(plan.person_index, row.fields[0],
                                  "person", path, row.line_number));
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t b, resolve(plan.person_index, row.fields[1],
                                  "person", path, row.line_number));
          uf.Union(a, b);
          ++entity_rows[a];
          return Status::OK();
        }));
  }
  {
    const std::string path = data_dir + "/influence.csv";
    TPIIN_RETURN_IF_ERROR(ScanTable(
        path, {"person", "company", "kind", "legal_person"},
        [&](const CsvRow& row) -> Status {
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t p, resolve(plan.person_index, row.fields[0],
                                  "person", path, row.line_number));
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t c, resolve(plan.company_index, row.fields[1],
                                  "company", path, row.line_number));
          uf.Union(p, person_count + c);
          ++entity_rows[p];
          return Status::OK();
        }));
  }
  {
    const std::string path = data_dir + "/investment.csv";
    TPIIN_RETURN_IF_ERROR(ScanTable(
        path, {"investor", "investee", "share"},
        [&](const CsvRow& row) -> Status {
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t a, resolve(plan.company_index, row.fields[0],
                                  "company", path, row.line_number));
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t b, resolve(plan.company_index, row.fields[1],
                                  "company", path, row.line_number));
          uf.Union(person_count + a, person_count + b);
          ++entity_rows[person_count + a];
          return Status::OK();
        }));
  }

  // --- Dense component ids and weights.
  std::vector<NodeId> component_of = uf.DenseComponentIds();
  plan.num_components = uf.NumSets();
  std::vector<uint64_t> component_weight(plan.num_components, 0);
  for (uint64_t e = 0; e < num_entities; ++e) {
    component_weight[component_of[e]] += 1 + entity_rows[e];
  }
  entity_rows.clear();
  entity_rows.shrink_to_fit();

  // --- Trading layer: intra-component rows add weight to their
  // component; cross-component rows are only counted.
  {
    const std::string path = data_dir + "/trades.csv";
    TPIIN_RETURN_IF_ERROR(ScanTable(
        path, {"seller", "buyer"},
        [&](const CsvRow& row) -> Status {
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t s, resolve(plan.company_index, row.fields[0],
                                  "company", path, row.line_number));
          TPIIN_ASSIGN_OR_RETURN(
              uint32_t b, resolve(plan.company_index, row.fields[1],
                                  "company", path, row.line_number));
          ++plan.trade_rows;
          const uint32_t comp_s = component_of[person_count + s];
          const uint32_t comp_b = component_of[person_count + b];
          if (comp_s == comp_b) {
            ++component_weight[comp_s];
          } else {
            ++plan.cross_trade_rows;
          }
          return Status::OK();
        }));
  }

  // --- Greedy balance: heaviest component first onto the least-loaded
  // shard (ties: lower component id, lower shard id) — deterministic,
  // and within 4/3 of optimal makespan, which is what bounds per-shard
  // peak memory.
  std::vector<uint32_t> order(plan.num_components);
  for (uint32_t i = 0; i < plan.num_components; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (component_weight[a] != component_weight[b]) {
      return component_weight[a] > component_weight[b];
    }
    return a < b;
  });
  plan.component_shard.assign(plan.num_components, 0);
  plan.shard_weight.assign(plan.num_shards, 0);
  using Load = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t s = 0; s < plan.num_shards; ++s) heap.push({0, s});
  for (uint32_t comp : order) {
    auto [load, shard] = heap.top();
    heap.pop();
    plan.component_shard[comp] = shard;
    load += component_weight[comp];
    plan.shard_weight[shard] = load;
    heap.push({load, shard});
  }

  plan.person_component.assign(component_of.begin(),
                               component_of.begin() + person_count);
  plan.company_component.assign(component_of.begin() + person_count,
                                component_of.end());
  return plan;
}

}  // namespace tpiin
