#include "common/csv.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace tpiin {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ParseCsvLineTest, PlainFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto fields = ParseCsvLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsvLineTest, QuotedFieldsWithCommasAndQuotes) {
  auto fields = ParseCsvLine("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields,
            (std::vector<std::string>{"a,b", "say \"hi\"", "plain"}));
}

TEST(ParseCsvLineTest, Errors) {
  EXPECT_TRUE(ParseCsvLine("\"unterminated").status().IsCorruption());
  EXPECT_TRUE(ParseCsvLine("ab\"cd").status().IsCorruption());
}

TEST(EscapeCsvFieldTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(EscapeCsvField(" lead"), "\" lead\"");
  EXPECT_EQ(EscapeCsvField("trail "), "\"trail \"");
}

TEST(CsvRoundTripTest, WriterThenReader) {
  std::string path = TempPath("tpiin_csv_roundtrip.csv");
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"id", "name"});
    writer.WriteRow({"1", "Zhang, Wei"});
    writer.WriteRow({"2", "quote\"d"});
    ASSERT_TRUE(writer.Close().ok());
  }
  auto rows = ReadCsvFile(path, {"id", "name"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"1", "Zhang, Wei"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"2", "quote\"d"}));
  std::remove(path.c_str());
}

TEST(ReadCsvFileTest, HeaderMismatchIsCorruption) {
  std::string path = TempPath("tpiin_csv_header.csv");
  {
    CsvWriter writer(path);
    writer.WriteRow({"wrong", "header"});
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_TRUE(ReadCsvFile(path, {"id", "name"}).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(ReadCsvFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadCsvFile("/nonexistent/dir/file.csv", {}).status().IsIOError());
}

TEST(ReadCsvFileTest, SkipsBlankLinesAndHandlesCrLf) {
  std::string path = TempPath("tpiin_csv_blank.csv");
  {
    std::ofstream out(path);
    out << "a,b\r\n\n1,2\r\n   \n3,4\n";
  }
  auto rows = ReadCsvFile(path, {"a", "b"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"3", "4"}));
  std::remove(path.c_str());
}


// The character-at-a-time RFC 4180 state machine the in-place splitter
// replaced, kept as the reference the splitter must agree with.
Result<std::vector<std::string>> ReferenceParseLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        cur += c;
        ++i;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        return Status::Corruption("quote inside unquoted CSV field");
      }
      in_quotes = true;
      ++i;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
      ++i;
    } else {
      cur += c;
      ++i;
    }
  }
  if (in_quotes) return Status::Corruption("unterminated CSV quote");
  fields.push_back(std::move(cur));
  return fields;
}

struct ExpectedRow {
  size_t line_number = 0;
  std::string raw;
  std::vector<std::string> fields;
  Status parse;
};

// What the reader must return: getline over the file, one CR stripped,
// blank and whitespace-only lines skipped, each line split by the
// reference parser.
std::vector<ExpectedRow> ReferenceRows(const std::string& path) {
  std::vector<ExpectedRow> rows;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) continue;
    Result<std::vector<std::string>> fields = ReferenceParseLine(line);
    ExpectedRow row;
    row.line_number = line_number;
    row.raw = line;
    row.parse = fields.status();
    if (fields.ok()) row.fields = std::move(*fields);
    rows.push_back(std::move(row));
  }
  return rows;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// One random CSV line (without its terminator). Half the lines are
// well formed (plain, empty and quoted fields with commas, doubled
// quotes and CRs); the rest also mix in stray quotes, unterminated
// quotes, bytes after a closing quote and NULs.
std::string RandomLine(Rng& rng) {
  static const std::vector<std::string> kPieces = {
      // Well-formed fields.
      "a", "bc", "123", "", " ", "\t", "  x  ", "\r", "\"x,y\"",
      "\"q\"\"d\"", "\"\"", "\"\"\"\"",
      // Fields that break the quoting rules alone or concatenated.
      "ab\"c", "\"open", "\"a\"b", "\"\"\"", std::string("\0z", 2),
      "\"a\"\"\"", ",", "\"\",\""};
  constexpr size_t kWellFormed = 12;
  const bool well_formed = rng.UniformU64(2) == 0;
  std::string line;
  const int64_t fields = rng.UniformInt(0, 6);
  for (int64_t f = 0; f < fields; ++f) {
    if (f > 0) line += ',';
    const int64_t parts = well_formed ? 1 : rng.UniformInt(1, 2);
    for (int64_t p = 0; p < parts; ++p) {
      line += kPieces[rng.UniformU64(well_formed ? kWellFormed
                                                 : kPieces.size())];
    }
  }
  if (!well_formed && rng.UniformU64(8) == 0) line += std::string("\0", 1);
  return line;
}

// A random file: header-only, empty, blank and whitespace-only lines,
// LF and CRLF endings, with or without a final newline.
std::string RandomFile(Rng& rng) {
  const int64_t shape = rng.UniformInt(0, 9);
  if (shape == 0) return "";
  if (shape == 1) return "id,name\n";
  if (shape == 2) return "id,name";
  std::string bytes = "id,name\n";
  const int64_t lines = rng.UniformInt(1, 30);
  for (int64_t i = 0; i < lines; ++i) {
    switch (rng.UniformInt(0, 7)) {
      case 0:
        break;  // Blank line.
      case 1:
        bytes += rng.UniformU64(2) == 0 ? "  \t " : " \r";
        break;
      default:
        bytes += RandomLine(rng);
        break;
    }
    if (i + 1 == lines && rng.UniformU64(3) == 0) break;  // No final LF.
    bytes += rng.UniformU64(3) == 0 ? "\r\n" : "\n";
  }
  return bytes;
}

void ExpectReaderMatchesReference(const std::string& path,
                                  size_t block_bytes) {
  const std::vector<ExpectedRow> expected = ReferenceRows(path);
  CsvFileReader reader(path, block_bytes);
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  CsvRow row;
  size_t index = 0;
  while (reader.Next(&row)) {
    ASSERT_LT(index, expected.size()) << "block " << block_bytes;
    const ExpectedRow& want = expected[index];
    EXPECT_EQ(row.line_number, want.line_number) << "block " << block_bytes;
    EXPECT_EQ(row.raw, want.raw) << "line " << want.line_number;
    EXPECT_EQ(row.parse.code(), want.parse.code())
        << "line " << want.line_number;
    EXPECT_EQ(row.parse.message(), want.parse.message());
    EXPECT_EQ(std::vector<std::string>(row.fields.begin(), row.fields.end()),
              want.fields)
        << "line " << want.line_number << " block " << block_bytes;
    // ParseCsvLine shares the splitter with the reader.
    Result<std::vector<std::string>> parsed = ParseCsvLine(row.raw);
    EXPECT_EQ(parsed.status().code(), want.parse.code());
    if (parsed.ok()) {
      EXPECT_EQ(*parsed, want.fields);
    }
    ++index;
  }
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(index, expected.size()) << "block " << block_bytes;
}

TEST(CsvFileReaderTest, SeededCorpusMatchesGetlineAndReferenceParser) {
  const std::string path = TempPath("tpiin_csv_corpus.csv");
  Rng rng(20240611);
  for (int file = 0; file < 200; ++file) {
    WriteBytes(path, RandomFile(rng));
    for (size_t block : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{64}, CsvFileReader::kBlockBytes}) {
      ExpectReaderMatchesReference(path, block);
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "corpus file " << file;
      break;
    }
  }
  std::remove(path.c_str());
}

TEST(CsvFileReaderTest, LineStraddlingABlockBoundary) {
  const std::string path = TempPath("tpiin_csv_straddle.csv");
  // With 8-byte blocks the second line starts in the first block and
  // ends in the second; the third line starts exactly on a boundary.
  WriteBytes(path, "h1,h2\nabc,def\nx,yz\n");
  CsvFileReader reader(path, 8);
  ASSERT_TRUE(reader.ExpectHeader({"h1", "h2"}).ok());
  CsvRow row;
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row.line_number, 2u);
  EXPECT_EQ(row.raw, "abc,def");
  EXPECT_EQ(row.fields, (std::vector<std::string_view>{"abc", "def"}));
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row.line_number, 3u);
  EXPECT_EQ(row.fields, (std::vector<std::string_view>{"x", "yz"}));
  EXPECT_FALSE(reader.Next(&row));
  EXPECT_TRUE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(CsvFileReaderTest, LineLongerThanOneBlock) {
  const std::string path = TempPath("tpiin_csv_long.csv");
  const std::string long_name(1000, 'n');
  WriteBytes(path, "id,name,note\r\n7,\"" + long_name +
                       ", jr\",\"say \"\"hi\"\"\"\r\nshort,b,c");
  CsvFileReader reader(path, 4);
  ASSERT_TRUE(reader.ExpectHeader({"id", "name", "note"}).ok());
  CsvRow row;
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row.line_number, 2u);
  ASSERT_TRUE(row.parse.ok()) << row.parse.ToString();
  ASSERT_EQ(row.fields.size(), 3u);
  EXPECT_EQ(row.fields[0], "7");
  EXPECT_EQ(row.fields[1], long_name + ", jr");
  EXPECT_EQ(row.fields[2], "say \"hi\"");
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row.line_number, 3u);
  EXPECT_EQ(row.raw, "short,b,c");
  EXPECT_FALSE(reader.Next(&row));
  std::remove(path.c_str());
}

TEST(CsvFileReaderTest, OpenFailpointFails) {
  const std::string path = TempPath("tpiin_csv_failpoint.csv");
  WriteBytes(path, "a,b\n1,2\n");
  Failpoints::Clear();
  ASSERT_TRUE(Failpoints::Configure("io.csv.open:ioerror").ok());
  {
    CsvFileReader reader(path);
    EXPECT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
    CsvRow row;
    EXPECT_FALSE(reader.Next(&row));
    EXPECT_TRUE(ReadCsvFile(path, {"a", "b"}).status().IsIOError());
  }
  EXPECT_EQ(Failpoints::HitCount("io.csv.open"), 2u);
  Failpoints::Clear();
  CsvFileReader reader(path);
  EXPECT_TRUE(reader.status().ok());
  EXPECT_TRUE(reader.ExpectHeader({"a", "b"}).ok());
  std::remove(path.c_str());
}

TEST(CsvFileReaderTest, MissingFileIsIOError) {
  CsvFileReader reader("/nonexistent/dir/file.csv");
  EXPECT_TRUE(reader.status().IsIOError());
  CsvRow row;
  EXPECT_FALSE(reader.Next(&row));
}

}  // namespace
}  // namespace tpiin
