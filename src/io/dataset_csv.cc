#include "io/dataset_csv.h"

#include <functional>
#include <unordered_map>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

const std::vector<std::string> kPersonsHeader = {"id", "name", "roles"};
const std::vector<std::string> kCompaniesHeader = {"id", "name"};
const std::vector<std::string> kInterdependenceHeader = {"person_a",
                                                         "person_b", "kind"};
const std::vector<std::string> kInfluenceHeader = {"person", "company",
                                                   "kind", "legal_person"};
const std::vector<std::string> kInvestmentHeader = {"investor", "investee",
                                                    "share"};
const std::vector<std::string> kTradesHeader = {"seller", "buyer"};

std::string PathOf(const std::string& directory, const char* file) {
  return directory + "/" + file;
}

}  // namespace

Status SaveDatasetCsv(const std::string& directory,
                      const RawDataset& dataset) {
  {
    CsvWriter w(PathOf(directory, "persons.csv"));
    w.WriteRow(kPersonsHeader);
    for (const Person& p : dataset.persons()) {
      w.WriteRow({StringPrintf("%u", p.id), p.name,
                  StringPrintf("%u", p.roles)});
    }
    TPIIN_RETURN_IF_ERROR(w.Close());
  }
  {
    CsvWriter w(PathOf(directory, "companies.csv"));
    w.WriteRow(kCompaniesHeader);
    for (const Company& c : dataset.companies()) {
      w.WriteRow({StringPrintf("%u", c.id), c.name});
    }
    TPIIN_RETURN_IF_ERROR(w.Close());
  }
  {
    CsvWriter w(PathOf(directory, "interdependence.csv"));
    w.WriteRow(kInterdependenceHeader);
    for (const InterdependenceRecord& r : dataset.interdependence()) {
      w.WriteRow({StringPrintf("%u", r.person_a),
                  StringPrintf("%u", r.person_b),
                  std::string(InterdependenceKindName(r.kind))});
    }
    TPIIN_RETURN_IF_ERROR(w.Close());
  }
  {
    CsvWriter w(PathOf(directory, "influence.csv"));
    w.WriteRow(kInfluenceHeader);
    for (const InfluenceRecord& r : dataset.influence()) {
      w.WriteRow({StringPrintf("%u", r.person),
                  StringPrintf("%u", r.company),
                  StringPrintf("%u", static_cast<unsigned>(r.kind)),
                  r.is_legal_person ? "1" : "0"});
    }
    TPIIN_RETURN_IF_ERROR(w.Close());
  }
  {
    CsvWriter w(PathOf(directory, "investment.csv"));
    w.WriteRow(kInvestmentHeader);
    for (const InvestmentRecord& r : dataset.investments()) {
      w.WriteRow({StringPrintf("%u", r.investor),
                  StringPrintf("%u", r.investee),
                  StringPrintf("%.6f", r.share)});
    }
    TPIIN_RETURN_IF_ERROR(w.Close());
  }
  {
    CsvWriter w(PathOf(directory, "trades.csv"));
    w.WriteRow(kTradesHeader);
    for (const TradeRecord& r : dataset.trades()) {
      w.WriteRow(
          {StringPrintf("%u", r.seller), StringPrintf("%u", r.buyer)});
    }
    TPIIN_RETURN_IF_ERROR(w.Close());
  }
  return Status::OK();
}

Result<RawDataset> LoadDatasetCsv(const std::string& directory) {
  return LoadDatasetCsv(directory, IngestOptions{}, nullptr);
}

namespace {

// Runs one CSV table through the hardened row loop: structural damage
// (open failure, bad header) is fatal; per-row damage — parse errors,
// wrong column counts, oversized fields, and whatever `handler` rejects
// (it sets *error_class before returning non-OK) — goes through `sink`,
// which applies the strict/skip/quarantine policy.
Status LoadTable(
    const std::string& path, const std::vector<std::string>& header,
    size_t max_field_bytes, IngestSink& sink,
    const std::function<Status(const std::vector<std::string_view>&,
                               const char**)>& handler) {
  CsvFileReader reader(path);
  TPIIN_RETURN_IF_ERROR(reader.status());
  TPIIN_RETURN_IF_ERROR(reader.ExpectHeader(header));
  CsvRow row;
  while (reader.Next(&row)) {
    const char* error_class = ingest_error::kParse;
    Status row_status = [&]() -> Status {
      if (!row.parse.ok()) return row.parse;
      if (row.fields.size() != header.size()) {
        error_class = ingest_error::kColumns;
        return Status::Corruption(
            StringPrintf("expected %zu columns, found %zu", header.size(),
                         row.fields.size()));
      }
      if (max_field_bytes != 0) {
        for (std::string_view field : row.fields) {
          if (field.size() > max_field_bytes) {
            error_class = ingest_error::kOversizedField;
            return Status::Corruption(
                StringPrintf("field of %zu bytes exceeds limit %zu",
                             field.size(), max_field_bytes));
          }
        }
      }
      return handler(row.fields, &error_class);
    }();
    if (!row_status.ok()) {
      TPIIN_RETURN_IF_ERROR(sink.Reject(path, row.line_number, row.raw,
                                        error_class, row_status));
      continue;
    }
    sink.CountLoaded();
  }
  return reader.status();
}

// File-id -> dense-id map for one entity table. Ids come from the id
// column (not row order), so a skipped row leaves a hole instead of
// silently shifting every later reference.
using IdMap = std::unordered_map<int64_t, uint32_t>;

Result<int64_t> ParseFileId(std::string_view field,
                            const char** error_class) {
  Result<int64_t> value = ParseInt64(field);
  if (!value.ok() || *value < 0) {
    *error_class = ingest_error::kBadNumber;
    return Status::Corruption("bad id: " + std::string(field));
  }
  return value;
}

Result<uint32_t> ResolveRef(const IdMap& ids, std::string_view field,
                            const char* what, const char** error_class) {
  Result<int64_t> raw = ParseInt64(field);
  if (!raw.ok()) {
    *error_class = ingest_error::kBadNumber;
    return Status::Corruption(StringPrintf("bad %s id: %s", what,
                                           std::string(field).c_str()));
  }
  auto it = ids.find(*raw);
  if (it == ids.end()) {
    *error_class = ingest_error::kDanglingRef;
    return Status::Corruption(
        StringPrintf("%s id %s does not refer to a loaded row", what,
                     std::string(field).c_str()));
  }
  return it->second;
}

}  // namespace

Result<RawDataset> LoadDatasetCsv(const std::string& directory,
                                  const IngestOptions& options,
                                  LoadReport* report) {
  TPIIN_FAILPOINT("io.dataset.load");
  LoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = LoadReport{};
  RawDataset dataset;
  IngestSink sink(options, report);
  IdMap person_ids;
  IdMap company_ids;

  TPIIN_RETURN_IF_ERROR(LoadTable(
      PathOf(directory, "persons.csv"), kPersonsHeader,
      options.max_field_bytes, sink,
      [&](const std::vector<std::string_view>& row,
          const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(int64_t id, ParseFileId(row[0], cls));
        if (person_ids.count(id) != 0) {
          *cls = ingest_error::kDuplicateId;
          return Status::Corruption(
              "duplicate person id " + std::string(row[0]));
        }
        if (!IsValidUtf8(row[1])) {
          *cls = ingest_error::kBadUtf8;
          return Status::Corruption("person name is not valid UTF-8");
        }
        Result<int64_t> roles = ParseInt64(row[2]);
        if (!roles.ok()) {
          *cls = ingest_error::kBadNumber;
          return Status::Corruption("bad roles mask " + std::string(row[2]));
        }
        if (*roles < 0 || *roles > kAllRoleBits) {
          *cls = ingest_error::kBadEnum;
          return Status::Corruption("bad roles mask " + std::string(row[2]));
        }
        person_ids.emplace(
            id, dataset.AddPerson(std::string(row[1]),
                                  static_cast<PersonRoles>(*roles)));
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(LoadTable(
      PathOf(directory, "companies.csv"), kCompaniesHeader,
      options.max_field_bytes, sink,
      [&](const std::vector<std::string_view>& row,
          const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(int64_t id, ParseFileId(row[0], cls));
        if (company_ids.count(id) != 0) {
          *cls = ingest_error::kDuplicateId;
          return Status::Corruption(
              "duplicate company id " + std::string(row[0]));
        }
        if (!IsValidUtf8(row[1])) {
          *cls = ingest_error::kBadUtf8;
          return Status::Corruption("company name is not valid UTF-8");
        }
        company_ids.emplace(id, dataset.AddCompany(std::string(row[1])));
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(LoadTable(
      PathOf(directory, "interdependence.csv"), kInterdependenceHeader,
      options.max_field_bytes, sink,
      [&](const std::vector<std::string_view>& row,
          const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(uint32_t a,
                               ResolveRef(person_ids, row[0], "person",
                                          cls));
        TPIIN_ASSIGN_OR_RETURN(uint32_t b,
                               ResolveRef(person_ids, row[1], "person",
                                          cls));
        InterdependenceKind kind;
        if (row[2] == "kinship") {
          kind = InterdependenceKind::kKinship;
        } else if (row[2] == "interlocking") {
          kind = InterdependenceKind::kInterlocking;
        } else {
          *cls = ingest_error::kBadEnum;
          return Status::Corruption(
              "bad interdependence kind " + std::string(row[2]));
        }
        dataset.AddInterdependence(a, b, kind);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(LoadTable(
      PathOf(directory, "influence.csv"), kInfluenceHeader,
      options.max_field_bytes, sink,
      [&](const std::vector<std::string_view>& row,
          const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(uint32_t person,
                               ResolveRef(person_ids, row[0], "person",
                                          cls));
        TPIIN_ASSIGN_OR_RETURN(uint32_t company,
                               ResolveRef(company_ids, row[1], "company",
                                          cls));
        Result<int64_t> kind = ParseInt64(row[2]);
        if (!kind.ok()) {
          *cls = ingest_error::kBadNumber;
          return Status::Corruption(
              "bad influence kind " + std::string(row[2]));
        }
        if (*kind < 0 || *kind > 3) {
          *cls = ingest_error::kBadEnum;
          return Status::Corruption(
              "bad influence kind " + std::string(row[2]));
        }
        if (row[3] != "0" && row[3] != "1") {
          *cls = ingest_error::kBadEnum;
          return Status::Corruption(
              "bad legal_person flag " + std::string(row[3]));
        }
        dataset.AddInfluence(person, company,
                             static_cast<InfluenceKind>(*kind),
                             row[3] == "1");
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(LoadTable(
      PathOf(directory, "investment.csv"), kInvestmentHeader,
      options.max_field_bytes, sink,
      [&](const std::vector<std::string_view>& row,
          const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(uint32_t investor,
                               ResolveRef(company_ids, row[0], "company",
                                          cls));
        TPIIN_ASSIGN_OR_RETURN(uint32_t investee,
                               ResolveRef(company_ids, row[1], "company",
                                          cls));
        Result<double> share = ParseDouble(row[2]);
        if (!share.ok()) {
          *cls = ingest_error::kBadNumber;
          return Status::Corruption("bad share " + std::string(row[2]));
        }
        dataset.AddInvestment(investor, investee, *share);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(LoadTable(
      PathOf(directory, "trades.csv"), kTradesHeader,
      options.max_field_bytes, sink,
      [&](const std::vector<std::string_view>& row,
          const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(uint32_t seller,
                               ResolveRef(company_ids, row[0], "company",
                                          cls));
        TPIIN_ASSIGN_OR_RETURN(uint32_t buyer,
                               ResolveRef(company_ids, row[1], "company",
                                          cls));
        dataset.AddTrade(seller, buyer);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(sink.Finish());
  TPIIN_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace tpiin
