#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

// Splits one line into fields, honoring RFC 4180 quoting. Fields view
// `line`, except a quoted field with "" escapes or bytes after its
// closing quote ("a"b reads as ab): that one is unescaped into
// `*scratch`, which is reserved to the line's size first so earlier
// views into it stay put.
Status SplitCsvFields(std::string_view line,
                      std::vector<std::string_view>* fields,
                      std::string* scratch) {
  fields->clear();
  scratch->clear();
  const size_t n = line.size();
  // End (comma or end of line) of the unquoted run starting at `from`,
  // or npos if the run holds a quote.
  auto unquoted_end = [&](size_t from) {
    for (; from < n && line[from] != ','; ++from) {
      if (line[from] == '"') return std::string_view::npos;
    }
    return from;
  };
  size_t i = 0;
  while (true) {
    size_t end;
    if (i < n && line[i] == '"') {
      // Quoted: the field runs to the first quote that is not doubled,
      // then on to the next comma unquoted.
      const size_t open = i + 1;
      size_t close = open;
      bool escaped = false;
      while (true) {
        const void* quote =
            std::memchr(line.data() + close, '"', n - close);
        if (quote == nullptr) {
          return Status::Corruption("unterminated CSV quote");
        }
        close = static_cast<const char*>(quote) - line.data();
        if (close + 1 >= n || line[close + 1] != '"') break;
        escaped = true;
        close += 2;
      }
      end = unquoted_end(close + 1);
      if (end == std::string_view::npos) {
        return Status::Corruption("quote inside unquoted CSV field");
      }
      if (!escaped && end == close + 1) {
        fields->push_back(line.substr(open, close - open));
      } else {
        if (scratch->capacity() < n) scratch->reserve(n);
        const size_t from = scratch->size();
        for (size_t k = open; k < close; ++k) {
          scratch->push_back(line[k]);
          if (line[k] == '"') ++k;  // The second quote of a "" pair.
        }
        scratch->append(line.data() + close + 1, end - close - 1);
        fields->push_back(std::string_view(*scratch).substr(from));
      }
    } else {
      end = unquoted_end(i);
      if (end == std::string_view::npos) {
        return Status::Corruption("quote inside unquoted CSV field");
      }
      fields->push_back(line.substr(i, end - i));
    }
    if (end == n) return Status::OK();
    i = end + 1;  // Past the comma; a trailing comma adds an empty field.
  }
}

}  // namespace

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  std::vector<std::string_view> views;
  std::string scratch;
  TPIIN_RETURN_IF_ERROR(SplitCsvFields(line, &views, &scratch));
  return std::vector<std::string>(views.begin(), views.end());
}

std::string EscapeCsvField(std::string_view field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!field.empty() &&
      (std::isspace(static_cast<unsigned char>(field.front())) ||
       std::isspace(static_cast<unsigned char>(field.back())))) {
    needs_quotes = true;
  }
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : file_(path) {}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  std::ostream& out = file_.stream();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << EscapeCsvField(fields[i]);
  }
  out << '\n';
}

Status CsvWriter::Close() { return file_.Commit(); }

CsvWriter::~CsvWriter() {
  Close();  // Best effort; errors surfaced via explicit Close.
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, const std::vector<std::string>& expect_header) {
  CsvFileReader reader(path);
  TPIIN_RETURN_IF_ERROR(reader.status());
  std::vector<std::vector<std::string>> rows;
  bool saw_header = expect_header.empty();
  CsvRow row;
  while (reader.Next(&row)) {
    TPIIN_RETURN_IF_ERROR(row.parse);
    if (!saw_header) {
      if (!std::equal(row.fields.begin(), row.fields.end(),
                      expect_header.begin(), expect_header.end())) {
        return Status::Corruption("unexpected CSV header in " + path);
      }
      saw_header = true;
      continue;
    }
    rows.emplace_back(row.fields.begin(), row.fields.end());
  }
  TPIIN_RETURN_IF_ERROR(reader.status());
  return rows;
}

CsvFileReader::CsvFileReader(const std::string& path, size_t block_bytes)
    : path_(path) {
#if defined(TPIIN_FAILPOINTS_COMPILED)
  if (Failpoints::AnyActive()) {
    Status injected = Failpoints::Check("io.csv.open");
    if (!injected.ok()) {
      status_ = std::move(injected);
      return;
    }
  }
#endif
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st;
  if (fd_ < 0 || ::fstat(fd_, &st) != 0 || S_ISDIR(st.st_mode)) {
    status_ = Status::IOError("cannot open " + path_);
    return;
  }
  // A small file gets a buffer of exactly its size and is read in one
  // go, so its last line ends where the allocation does and a sanitizer
  // sees any read past it.
  capacity_ = std::max<size_t>(block_bytes, 1);
  if (S_ISREG(st.st_mode)) {
    unread_ = static_cast<size_t>(st.st_size);
    eof_ = unread_ == 0;
    capacity_ = std::clamp<size_t>(unread_, 1, capacity_);
  }
  buffer_.reset(new char[capacity_]);
}

CsvFileReader::~CsvFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status CsvFileReader::ExpectHeader(const std::vector<std::string>& header) {
  TPIIN_RETURN_IF_ERROR(status_);
  CsvRow row;
  if (!Next(&row)) {
    TPIIN_RETURN_IF_ERROR(status_);
    return Status::Corruption(path_ + ": missing header");
  }
  TPIIN_RETURN_IF_ERROR(row.parse);
  if (!std::equal(row.fields.begin(), row.fields.end(), header.begin(),
                  header.end())) {
    return Status::Corruption("unexpected CSV header in " + path_);
  }
  return Status::OK();
}

void CsvFileReader::Refill() {
  const size_t tail = end_ - begin_;
  if (tail == capacity_) {
    // One line fills the whole buffer: grow it.
    const size_t grown = capacity_ * 2;
    std::unique_ptr<char[]> bigger(new char[grown]);
    std::memcpy(bigger.get(), buffer_.get() + begin_, tail);
    buffer_ = std::move(bigger);
    capacity_ = grown;
  } else if (begin_ != 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, tail);
  }
  begin_ = 0;
  end_ = tail;
  ssize_t got;
  do {
    got = ::read(fd_, buffer_.get() + end_, capacity_ - end_);
  } while (got < 0 && errno == EINTR);
  if (got < 0) {
    // Drop the partial line rather than hand it out as a row.
    status_ = Status::IOError("cannot read " + path_);
    begin_ = end_ = 0;
    eof_ = true;
  } else {
    end_ += static_cast<size_t>(got);
    unread_ -= std::min(unread_, static_cast<size_t>(got));
    eof_ = got == 0 || unread_ == 0;
  }
}

bool CsvFileReader::NextLine(std::string_view* line) {
  while (true) {
    const char* base = buffer_.get();
    const void* newline =
        std::memchr(base + begin_, '\n', end_ - begin_);
    if (newline != nullptr) {
      const size_t at = static_cast<const char*>(newline) - base;
      *line = std::string_view(base + begin_, at - begin_);
      begin_ = at + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      *line = std::string_view(base + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    Refill();
  }
}

bool CsvFileReader::Next(CsvRow* row) {
  if (!status_.ok()) return false;
  std::string_view line;
  while (NextLine(&line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (Trim(line).empty()) continue;
    row->line_number = line_number_;
    row->raw = line;
    row->parse = SplitCsvFields(line, &row->fields, &scratch_);
    if (!row->parse.ok()) row->fields.clear();
    return true;
  }
  return false;
}

}  // namespace tpiin
