// Deterministic mutation fuzzing of CSV ingest: seeded bit flips,
// truncations, duplicated lines and splices, applied one table at a time
// to a small generated province. Whatever the damage, LoadDatasetCsv
// must not crash (the ASan+UBSan build runs this suite), skip mode must
// account for every row it saw, and strict mode must fail exactly when
// skip mode rejected a row or failed outright.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/province.h"
#include "io/dataset_csv.h"
#include "io/ingest.h"

namespace tpiin {
namespace {

namespace fs = std::filesystem;

const char* const kTables[] = {"persons.csv",         "companies.csv",
                               "interdependence.csv", "influence.csv",
                               "investment.csv",      "trades.csv"};

enum class Mutation { kBitFlips, kTruncate, kDuplicateLine, kSplice };

constexpr Mutation kMutations[] = {Mutation::kBitFlips, Mutation::kTruncate,
                                   Mutation::kDuplicateLine,
                                   Mutation::kSplice};

// Seeds per (table, mutation) pair.
constexpr uint64_t kSeedsPerMutation = 12;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Start offsets of every line of `bytes`.
std::vector<size_t> LineStarts(const std::string& bytes) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

// Applies one seeded mutation. `donor` is another table of the same
// province, the source of spliced bytes.
std::string Mutate(const std::string& bytes, const std::string& donor,
                   Mutation mutation, Rng& rng) {
  std::string out = bytes;
  switch (mutation) {
    case Mutation::kBitFlips: {
      const int64_t flips = rng.UniformInt(1, 4);
      for (int64_t i = 0; i < flips && !out.empty(); ++i) {
        out[rng.UniformU64(out.size())] ^=
            static_cast<char>(1u << rng.UniformU64(8));
      }
      break;
    }
    case Mutation::kTruncate:
      out.resize(rng.UniformU64(out.size() + 1));
      break;
    case Mutation::kDuplicateLine: {
      const std::vector<size_t> starts = LineStarts(out);
      const size_t line = rng.UniformU64(starts.size());
      const size_t end = line + 1 < starts.size() ? starts[line + 1]
                                                  : out.size();
      std::string copy = out.substr(starts[line], end - starts[line]);
      if (copy.empty() || copy.back() != '\n') copy += '\n';
      out.insert(starts[rng.UniformU64(starts.size())], copy);
      break;
    }
    case Mutation::kSplice: {
      // Replace a random range with a random range of the donor: a torn
      // write or a mixed-up extract.
      const size_t at = rng.UniformU64(out.size() + 1);
      const size_t cut =
          rng.UniformU64(std::min<size_t>(64, out.size() - at) + 1);
      const size_t from = rng.UniformU64(donor.size() + 1);
      const size_t take =
          rng.UniformU64(std::min<size_t>(64, donor.size() - from) + 1);
      out.replace(at, cut, donor, from, take);
      break;
    }
  }
  return out;
}

class CsvMutationTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("tpiin_csv_mutation_" + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam())))
                .string();
    dir_ = base_ + "/data";
    fs::create_directories(dir_);
    ProvinceConfig config = SmallProvinceConfig(60, 3);
    config.trading_probability = 0.05;
    Result<Province> province = GenerateProvince(config);
    ASSERT_TRUE(province.ok()) << province.status().ToString();
    ASSERT_TRUE(SaveDatasetCsv(dir_, province->dataset).ok());
    for (const char* table : kTables) {
      originals_.push_back(Slurp(dir_ + "/" + table));
    }
  }
  void TearDown() override { fs::remove_all(base_); }

  std::string base_;
  std::string dir_;
  std::vector<std::string> originals_;
};

TEST_P(CsvMutationTest, StrictFailsExactlyWhenSkipRejects) {
  const size_t table = GetParam();
  const std::string path = dir_ + "/" + kTables[table];
  const std::string& donor = originals_[(table + 1) % originals_.size()];
  size_t rejecting_cases = 0;
  for (Mutation mutation : kMutations) {
    for (uint64_t seed = 0; seed < kSeedsPerMutation; ++seed) {
      Rng rng(seed * 131 + table * 17 + static_cast<uint64_t>(mutation));
      const std::string mutated =
          Mutate(originals_[table], donor, mutation, rng);
      WriteBytes(path, mutated);
      SCOPED_TRACE(::testing::Message()
                   << kTables[table] << " mutation "
                   << static_cast<int>(mutation) << " seed " << seed);

      IngestOptions skip;
      skip.mode = IngestMode::kSkip;
      LoadReport skip_report;
      Result<RawDataset> skipped = LoadDatasetCsv(dir_, skip, &skip_report);
      if (skipped.ok()) {
        EXPECT_EQ(skip_report.rows_loaded + skip_report.rows_rejected,
                  skip_report.rows_seen);
      }

      IngestOptions quarantine;
      quarantine.mode = IngestMode::kQuarantine;
      quarantine.quarantine_path = base_ + "/quarantine.txt";
      LoadReport quarantine_report;
      Result<RawDataset> quarantined =
          LoadDatasetCsv(dir_, quarantine, &quarantine_report);
      EXPECT_EQ(quarantined.ok(), skipped.ok());
      if (quarantined.ok()) {
        EXPECT_EQ(quarantine_report.rows_quarantined,
                  skip_report.rows_rejected);
        EXPECT_EQ(quarantine_report.rows_seen, skip_report.rows_seen);
        EXPECT_EQ(quarantine_report.rows_loaded, skip_report.rows_loaded);
        EXPECT_EQ(quarantine_report.errors_by_class,
                  skip_report.errors_by_class);
      }
      fs::remove(quarantine.quarantine_path);

      LoadReport strict_report;
      Result<RawDataset> strict =
          LoadDatasetCsv(dir_, IngestOptions{}, &strict_report);
      const bool skip_rejected =
          !skipped.ok() || skip_report.rows_rejected > 0;
      EXPECT_EQ(strict.ok(), !skip_rejected)
          << "strict: " << strict.status().ToString()
          << "; skip: " << skipped.status().ToString() << " rejected "
          << skip_report.rows_rejected;
      if (strict.ok() && skipped.ok()) {
        EXPECT_EQ(strict->trades().size(), skipped->trades().size());
        EXPECT_EQ(strict->persons().size(), skipped->persons().size());
      }
      if (skip_rejected) ++rejecting_cases;
    }
  }
  WriteBytes(path, originals_[table]);
  // The mutator must actually damage rows.
  EXPECT_GT(rejecting_cases, 0u);
}

INSTANTIATE_TEST_SUITE_P(Tables, CsvMutationTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           std::string name = kTables[info.param];
                           return name.substr(0, name.find('.'));
                         });

}  // namespace
}  // namespace tpiin
