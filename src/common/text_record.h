// A tiny line-oriented key/value record format: the text form of a saved
// parallel configuration (src/config/config_io, DESIGN.md §19). Deliberately
// simpler than JSON: one record per block, "key = value" lines, blocks
// separated by blank lines.
//
//   record {
//     type = stage
//     num_ops = 64
//     ops = 2,4,col,0,0*64;
//   }
//
// Grammar. Lines are trimmed of ASCII whitespace (so CRLF files load); empty
// lines and lines starting with '#' are skipped; "record {" opens a record
// and "}" closes it; every other line must be "key = value" inside a record
// (split at the first '=', both sides trimmed, key non-empty). A repeated key
// keeps its last value. ScanRecords is the one implementation of this
// grammar; ParseRecords and the config codec both read through it.

#ifndef SRC_COMMON_TEXT_RECORD_H_
#define SRC_COMMON_TEXT_RECORD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace aceso {

// The whitespace the grammar trims: isspace() in the "C" locale.
inline bool IsTextSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// One record: an ordered map from key to string value plus typed accessors.
class TextRecord {
 public:
  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);

  bool Has(const std::string& key) const;
  StatusOr<std::string> Get(const std::string& key) const;
  StatusOr<int64_t> GetInt(const std::string& key) const;
  StatusOr<double> GetDouble(const std::string& key) const;

  const std::map<std::string, std::string>& fields() const { return fields_; }

 private:
  std::map<std::string, std::string> fields_;
};

// One "key = value" line of a scanned record, as views into the scanned text.
struct TextField {
  std::string_view key;
  std::string_view value;
};

// One scanned record: its fields in file order, repeated keys included.
struct TextRecordView {
  // The value of the last field named `key` (a repeated key's last value
  // wins, as with TextRecord::Set), or nullopt when the key is absent.
  std::optional<std::string_view> Find(std::string_view key) const;

  std::vector<TextField> fields;
};

// Scans `text` in one pass. The views point into `text`, which must outlive
// them. Structural errors name their 1-based line.
StatusOr<std::vector<TextRecordView>> ScanRecords(std::string_view text);

// Appends records in the block layout above, one field at a time. Fields are
// written in call order; SerializeRecords calls them in key order, and any
// other writer that wants the same bytes must do the same.
class TextRecordWriter {
 public:
  explicit TextRecordWriter(std::string* out) : out_(*out) {}

  void BeginRecord() { out_ += "record {\n"; }
  void EndRecord() { out_ += "}\n"; }
  void Field(std::string_view key, std::string_view value);
  void IntField(std::string_view key, int64_t value);
  // Opens a field whose value the caller appends to the returned string;
  // EndField() closes the line.
  std::string& BeginField(std::string_view key);
  void EndField() { out_ += '\n'; }

 private:
  std::string& out_;
};

// Serializes records to the block format above.
std::string SerializeRecords(const std::vector<TextRecord>& records);

// Parses the block format; rejects malformed lines.
StatusOr<std::vector<TextRecord>> ParseRecords(std::string_view text);

// Whole-file helpers.
Status WriteRecordsToFile(const std::string& path,
                          const std::vector<TextRecord>& records);
StatusOr<std::vector<TextRecord>> ReadRecordsFromFile(const std::string& path);

// Reads a whole file into one string / writes one string as a whole file.
// Errors: NotFound when the file cannot be opened for reading, Internal when
// it cannot be opened for writing or a read or write fails.
StatusOr<std::string> ReadTextFile(const std::string& path);
Status WriteTextFile(const std::string& path, std::string_view text);

}  // namespace aceso

#endif  // SRC_COMMON_TEXT_RECORD_H_
