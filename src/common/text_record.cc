#include "src/common/text_record.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace aceso {
namespace {

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsTextSpace(s[begin])) {
    ++begin;
  }
  while (end > begin && IsTextSpace(s[end - 1])) {
    --end;
  }
  return s.substr(begin, end - begin);
}

}  // namespace

void TextRecord::Set(const std::string& key, const std::string& value) {
  fields_[key] = value;
}

void TextRecord::SetInt(const std::string& key, int64_t value) {
  fields_[key] = std::to_string(value);
}

void TextRecord::SetDouble(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_[key] = buf;
}

bool TextRecord::Has(const std::string& key) const {
  return fields_.count(key) > 0;
}

StatusOr<std::string> TextRecord::Get(const std::string& key) const {
  auto it = fields_.find(key);
  if (it == fields_.end()) {
    return NotFound("missing field: " + key);
  }
  return it->second;
}

StatusOr<int64_t> TextRecord::GetInt(const std::string& key) const {
  auto value = Get(key);
  if (!value.ok()) {
    return value.status();
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (errno != 0 || end == value->c_str() || *end != '\0') {
    return InvalidArgument("field '" + key + "' is not an integer: " + *value);
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<double> TextRecord::GetDouble(const std::string& key) const {
  auto value = Get(key);
  if (!value.ok()) {
    return value.status();
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (errno != 0 || end == value->c_str() || *end != '\0') {
    return InvalidArgument("field '" + key + "' is not a number: " + *value);
  }
  return parsed;
}

std::optional<std::string_view> TextRecordView::Find(
    std::string_view key) const {
  for (auto it = fields.rbegin(); it != fields.rend(); ++it) {
    if (it->key == key) {
      return it->value;
    }
  }
  return std::nullopt;
}

StatusOr<std::vector<TextRecordView>> ScanRecords(std::string_view text) {
  std::vector<TextRecordView> records;
  bool in_record = false;
  TextRecordView current;
  int line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t newline = text.find('\n', pos);
    if (newline == std::string_view::npos) {
      newline = text.size();
    }
    const std::string_view trimmed = Trim(text.substr(pos, newline - pos));
    pos = newline + 1;
    ++line_no;
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    if (trimmed == "record {") {
      if (in_record) {
        return InvalidArgument("nested record at line " +
                               std::to_string(line_no));
      }
      in_record = true;
      current.fields.clear();
      continue;
    }
    if (trimmed == "}") {
      if (!in_record) {
        return InvalidArgument("stray '}' at line " + std::to_string(line_no));
      }
      in_record = false;
      records.push_back(std::move(current));
      current = TextRecordView();
      continue;
    }
    const size_t eq = trimmed.find('=');
    if (!in_record || eq == std::string_view::npos) {
      return InvalidArgument("malformed line " + std::to_string(line_no) +
                             ": " + std::string(trimmed));
    }
    const std::string_view key = Trim(trimmed.substr(0, eq));
    if (key.empty()) {
      return InvalidArgument("empty key at line " + std::to_string(line_no));
    }
    current.fields.push_back({key, Trim(trimmed.substr(eq + 1))});
  }
  if (in_record) {
    return InvalidArgument("unterminated record at end of input");
  }
  return records;
}

void TextRecordWriter::Field(std::string_view key, std::string_view value) {
  BeginField(key) += value;
  EndField();
}

void TextRecordWriter::IntField(std::string_view key, int64_t value) {
  char buf[24];  // what std::to_string prints, without a temporary
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  Field(key, std::string_view(buf, static_cast<size_t>(end - buf)));
}

std::string& TextRecordWriter::BeginField(std::string_view key) {
  out_ += "  ";
  out_ += key;
  out_ += " = ";
  return out_;
}

std::string SerializeRecords(const std::vector<TextRecord>& records) {
  std::string out;
  TextRecordWriter writer(&out);
  for (const TextRecord& record : records) {
    writer.BeginRecord();
    for (const auto& [key, value] : record.fields()) {
      writer.Field(key, value);
    }
    writer.EndRecord();
  }
  return out;
}

StatusOr<std::vector<TextRecord>> ParseRecords(std::string_view text) {
  auto views = ScanRecords(text);
  if (!views.ok()) {
    return views.status();
  }
  std::vector<TextRecord> records(views->size());
  for (size_t r = 0; r < views->size(); ++r) {
    for (const TextField& field : (*views)[r].fields) {
      records[r].Set(std::string(field.key), std::string(field.value));
    }
  }
  return records;
}

Status WriteRecordsToFile(const std::string& path,
                          const std::vector<TextRecord>& records) {
  return WriteTextFile(path, SerializeRecords(records));
}

StatusOr<std::vector<TextRecord>> ReadRecordsFromFile(const std::string& path) {
  auto text = ReadTextFile(path);
  if (!text.ok()) {
    return text.status();
  }
  return ParseRecords(*text);
}

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFound("cannot open for reading: " + path);
  }
  // Read a regular file straight into a string of its size, then append
  // whatever is left (all of it for a pipe, which has no size).
  std::string text;
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (!error && size > 0) {
    text.resize(static_cast<size_t>(size));
    text.resize(std::fread(text.data(), 1, text.size(), file));
  }
  char chunk[1 << 14];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Internal("read failed: " + path);
  }
  return text;
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Internal("cannot open for writing: " + path);
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !written) {
    return Internal("write failed: " + path);
  }
  return OkStatus();
}

}  // namespace aceso
