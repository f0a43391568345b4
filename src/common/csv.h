#ifndef TPIIN_COMMON_CSV_H_
#define TPIIN_COMMON_CSV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/result.h"
#include "common/status.h"

namespace tpiin {

/// Parses one CSV line into fields, honoring RFC 4180 double-quote
/// escaping ("a","b""c" -> {a, b"c}). Embedded newlines inside quotes are
/// not supported (our formats never emit them).
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

/// Quotes a field if it contains a comma, quote, or leading/trailing
/// whitespace.
std::string EscapeCsvField(std::string_view field);

/// Streaming CSV writer. All write paths funnel through WriteRow so
/// quoting stays consistent. Writes are crash-safe: rows stream into a
/// temporary that replaces `path` only when Close() succeeds, so a
/// killed process or failed write never leaves a half-written table.
class CsvWriter {
 public:
  /// Opens the temporary for `path`. Check ok() before use.
  explicit CsvWriter(const std::string& path);

  bool ok() const { return file_.ok(); }

  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes and publishes the file; returns IOError if any write
  /// failed. Safe to call more than once.
  Status Close();

  ~CsvWriter();

 private:
  AtomicFile file_;
};

/// Whole-file CSV reader: returns rows of fields. Skips blank lines.
/// If `expect_header` is non-empty the first row must equal it exactly
/// (and is not returned).
Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, const std::vector<std::string>& expect_header);

/// One non-blank physical line of a CSV file, parsed in place. A row whose
/// `parse` status is non-OK still carries line_number and raw text, so
/// hardened loaders can count, skip, or quarantine it instead of aborting
/// the whole file.
///
/// `raw` and `fields` view the reader's block buffer (a quoted field that
/// needs unescaping views the reader's scratch string instead). They stay
/// valid only until the next call to Next() on the same reader.
struct CsvRow {
  size_t line_number = 0;  ///< 1-based physical line.
  std::string_view raw;    ///< The line as read (CR stripped).
  std::vector<std::string_view> fields;  ///< Valid iff parse.ok().
  Status parse;
};

/// Streaming per-line CSV reader — the resilient counterpart of
/// ReadCsvFile, which fails the whole file on the first malformed line.
/// Blank lines are skipped; a malformed line is *returned* (with
/// row.parse non-OK) rather than ending the stream.
///
/// The file is read in blocks of `block_bytes` (a smaller file gets a
/// buffer of its own size); the partial last line of a block is carried
/// to the front of the buffer before the next read, and a line longer
/// than the buffer grows it. Memory is therefore bounded by the block
/// size or the longest line, never by the file.
class CsvFileReader {
 public:
  static constexpr size_t kBlockBytes = size_t{1} << 20;

  /// Opens `path`. Check status() before iterating.
  explicit CsvFileReader(const std::string& path,
                         size_t block_bytes = kBlockBytes);
  ~CsvFileReader();
  CsvFileReader(const CsvFileReader&) = delete;
  CsvFileReader& operator=(const CsvFileReader&) = delete;

  /// Non-OK if the file could not be opened or a read failed; after a
  /// failed read Next() returns false, so check it again after the loop.
  const Status& status() const { return status_; }

  /// If a header is expected, call immediately after construction.
  /// Consumes the first non-blank line and checks it.
  Status ExpectHeader(const std::vector<std::string>& header);

  /// Reads the next non-blank line into `*row`. Returns false at EOF
  /// (or when the reader failed to open or to read).
  bool Next(CsvRow* row);

 private:
  /// Hands out the next physical line (without its '\n').
  bool NextLine(std::string_view* line);
  /// Moves the unread tail to the front of the buffer, growing it when
  /// the tail fills it, and reads more bytes after it.
  void Refill();

  int fd_ = -1;
  std::string path_;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< First unread byte.
  size_t end_ = 0;    ///< One past the last byte read.
  /// Bytes of a regular file not read yet (its size at open); the
  /// stream ends when it reaches 0 or a read returns nothing.
  size_t unread_ = SIZE_MAX;
  bool eof_ = false;
  std::string scratch_;  ///< Unescaped quoted fields of the current row.
  size_t line_number_ = 0;
  Status status_;
};

}  // namespace tpiin

#endif  // TPIIN_COMMON_CSV_H_
