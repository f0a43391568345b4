#include "io/ledger_csv.h"

#include <unordered_set>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

const std::vector<std::string> kMarketHeader = {"category", "unit_price"};
const std::vector<std::string> kTransactionsHeader = {
    "id", "seller", "buyer", "category", "quantity", "unit_price",
    "mispriced"};

}  // namespace

Status SaveLedgerCsv(const std::string& directory, const Ledger& ledger) {
  {
    CsvWriter writer(directory + "/market.csv");
    writer.WriteRow(kMarketHeader);
    for (CategoryId c = 0; c < ledger.market.num_categories(); ++c) {
      writer.WriteRow({StringPrintf("%u", c),
                       StringPrintf("%.17g", ledger.market.PriceOf(c))});
    }
    TPIIN_RETURN_IF_ERROR(writer.Close());
  }
  std::unordered_set<size_t> mispriced(ledger.mispriced.begin(),
                                       ledger.mispriced.end());
  CsvWriter writer(directory + "/transactions.csv");
  writer.WriteRow(kTransactionsHeader);
  for (size_t i = 0; i < ledger.transactions.size(); ++i) {
    const Transaction& tx = ledger.transactions[i];
    writer.WriteRow({StringPrintf("%llu", static_cast<unsigned long long>(
                                              tx.id)),
                     StringPrintf("%u", tx.seller),
                     StringPrintf("%u", tx.buyer),
                     StringPrintf("%u", tx.category),
                     StringPrintf("%.17g", tx.quantity),
                     StringPrintf("%.17g", tx.unit_price),
                     mispriced.count(i) ? "1" : "0"});
  }
  return writer.Close();
}

Result<Ledger> LoadLedgerCsv(const std::string& directory) {
  return LoadLedgerCsv(directory, IngestOptions{}, nullptr);
}

Result<Ledger> LoadLedgerCsv(const std::string& directory,
                             const IngestOptions& options,
                             LoadReport* report) {
  LoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = LoadReport{};
  IngestSink sink(options, report);
  Ledger ledger;

  {
    const std::string path = directory + "/market.csv";
    CsvFileReader reader(path);
    TPIIN_RETURN_IF_ERROR(reader.status());
    TPIIN_RETURN_IF_ERROR(reader.ExpectHeader(kMarketHeader));
    CsvRow row;
    while (reader.Next(&row)) {
      const char* error_class = ingest_error::kParse;
      Status row_status = [&]() -> Status {
        if (!row.parse.ok()) return row.parse;
        if (row.fields.size() != 2) {
          error_class = ingest_error::kColumns;
          return Status::Corruption("bad column count");
        }
        Result<int64_t> category = ParseInt64(row.fields[0]);
        Result<double> price = ParseDouble(row.fields[1]);
        if (!category.ok() || !price.ok()) {
          error_class = ingest_error::kBadNumber;
          return Status::Corruption("bad market row");
        }
        // Categories index the price vector, so they must stay dense; a
        // rejected market row therefore cascades (later categories are
        // rejected too, and transactions on them become dangling_ref)
        // rather than silently re-pricing anything.
        if (*category !=
            static_cast<int64_t>(ledger.market.unit_price.size())) {
          error_class = ingest_error::kIdRange;
          return Status::Corruption("categories must be dense");
        }
        ledger.market.unit_price.push_back(*price);
        return Status::OK();
      }();
      if (!row_status.ok()) {
        TPIIN_RETURN_IF_ERROR(sink.Reject(path, row.line_number, row.raw,
                                          error_class, row_status));
        continue;
      }
      sink.CountLoaded();
    }
    TPIIN_RETURN_IF_ERROR(reader.status());
  }

  {
    const std::string path = directory + "/transactions.csv";
    CsvFileReader reader(path);
    TPIIN_RETURN_IF_ERROR(reader.status());
    TPIIN_RETURN_IF_ERROR(reader.ExpectHeader(kTransactionsHeader));
    std::unordered_set<uint64_t> relations;
    CsvRow row;
    while (reader.Next(&row)) {
      const char* error_class = ingest_error::kParse;
      Status row_status = [&]() -> Status {
        if (!row.parse.ok()) return row.parse;
        if (row.fields.size() != 7) {
          error_class = ingest_error::kColumns;
          return Status::Corruption("bad column count");
        }
        Transaction tx;
        Result<int64_t> id = ParseInt64(row.fields[0]);
        Result<int64_t> seller = ParseInt64(row.fields[1]);
        Result<int64_t> buyer = ParseInt64(row.fields[2]);
        Result<int64_t> category = ParseInt64(row.fields[3]);
        Result<double> quantity = ParseDouble(row.fields[4]);
        Result<double> unit_price = ParseDouble(row.fields[5]);
        if (!id.ok() || !seller.ok() || !buyer.ok() || !category.ok() ||
            !quantity.ok() || !unit_price.ok()) {
          error_class = ingest_error::kBadNumber;
          return Status::Corruption("bad transaction row");
        }
        if (*category < 0 ||
            *category >=
                static_cast<int64_t>(ledger.market.num_categories())) {
          error_class = ingest_error::kDanglingRef;
          return Status::Corruption("bad category " +
                                    std::string(row.fields[3]));
        }
        if (row.fields[6] != "0" && row.fields[6] != "1") {
          error_class = ingest_error::kBadEnum;
          return Status::Corruption("bad mispriced flag");
        }
        tx.id = static_cast<TransactionId>(*id);
        tx.seller = static_cast<CompanyId>(*seller);
        tx.buyer = static_cast<CompanyId>(*buyer);
        tx.category = static_cast<CategoryId>(*category);
        tx.quantity = *quantity;
        tx.unit_price = *unit_price;
        if (row.fields[6] == "1") {
          ledger.mispriced.push_back(ledger.transactions.size());
        }
        relations.insert((static_cast<uint64_t>(tx.seller) << 32) |
                         tx.buyer);
        ledger.transactions.push_back(tx);
        return Status::OK();
      }();
      if (!row_status.ok()) {
        TPIIN_RETURN_IF_ERROR(sink.Reject(path, row.line_number, row.raw,
                                          error_class, row_status));
        continue;
      }
      sink.CountLoaded();
    }
    TPIIN_RETURN_IF_ERROR(reader.status());
    ledger.num_relations = relations.size();
  }

  TPIIN_RETURN_IF_ERROR(sink.Finish());
  return ledger;
}

Status WriteAuditReport(const std::string& path, const Ledger& ledger,
                        const AuditReport& report) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  out << report.Summary() << "\n\nFindings:\n";
  for (const CupFinding& finding : report.findings) {
    const Transaction& tx = ledger.transactions[finding.tx_index];
    out << StringPrintf(
        "  tx#%llu  company#%u -> company#%u  category %u  "
        "price %.2f (market %.2f)  under-invoiced %.2f  adjustment "
        "%.2f\n",
        static_cast<unsigned long long>(tx.id), tx.seller, tx.buyer,
        tx.category, tx.unit_price, ledger.market.PriceOf(tx.category),
        finding.underpricing, finding.tax_adjustment);
  }
  return file.Commit();
}

}  // namespace tpiin
