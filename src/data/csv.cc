#include "data/csv.h"

#include <fstream>
#include <unordered_map>

#include "common/string_util.h"

namespace sablock::data {

namespace {

/// The RFC 4180 field state machine behind ParseCsvLine and ReadCsv. It
/// is fed one physical line at a time and keeps its state between lines,
/// so a quoted field may span line breaks: while in_quotes() is set after
/// Feed, the row continues on the next line. The fields go into a
/// caller-owned vector, so a reader reuses its capacity row after row.
class CsvRowParser {
 public:
  explicit CsvRowParser(std::vector<std::string>* fields) : fields_(fields) {
    fields_->clear();
  }

  void Feed(std::string_view line) {
    // The loop runs on locals: a char store into a member string may
    // alias the other members, which would force a reload per byte.
    bool in_quotes = in_quotes_;
    std::string current = std::move(current_);
    for (size_t i = 0; i < line.size(); ++i) {
      char c = line[i];
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            current.push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          current.push_back(c);
        }
      } else {
        if (c == '"' && current.empty()) {
          in_quotes = true;
        } else if (c == ',') {
          fields_->push_back(std::move(current));
          current.clear();
        } else {
          current.push_back(c);
        }
      }
    }
    current_ = std::move(current);
    in_quotes_ = in_quotes;
  }

  bool in_quotes() const { return in_quotes_; }

  /// Drops the last character of the open field: the '\r' of a CRLF line
  /// end, which Feed took as field text outside quotes.
  void DropLastChar() { current_.pop_back(); }

  void Finish() { fields_->push_back(std::move(current_)); }

 private:
  std::vector<std::string>* fields_;
  std::string current_;
  bool in_quotes_ = false;
};

/// Reads a CSV stream row by row. Skips blank lines between rows, joins
/// the lines of a quoted field that spans line breaks (restoring the '\n'
/// getline consumed), and strips a CRLF '\r' only once the row is
/// complete, so a quoted "\r\n" survives.
class CsvRowReader {
 public:
  explicit CsvRowReader(std::istream& in) : in_(in) {}

  /// Reads the next row into `fields`. Returns false at the end of the
  /// input; status() is then an error if it ended inside a quoted field.
  bool Next(std::vector<std::string>* fields) {
    CsvRowParser parser(fields);
    bool continued = false;
    while (std::getline(in_, line_)) {
      ++line_no_;
      if (continued) {
        parser.Feed("\n");
      } else if (line_.empty() || line_ == "\r") {
        continue;
      } else {
        row_line_ = line_no_;
      }
      parser.Feed(line_);
      continued = parser.in_quotes();
      if (continued) continue;
      if (!line_.empty() && line_.back() == '\r') parser.DropLastChar();
      parser.Finish();
      return true;
    }
    if (continued) {
      status_ = Status::Error("CSV row " + std::to_string(row_line_) +
                              " has a quoted field that is never closed");
    }
    return false;
  }

  /// The physical line number (1-based) of the last row's first line.
  size_t row_line() const { return row_line_; }
  const Status& status() const { return status_; }

 private:
  std::istream& in_;
  std::string line_;  // reused across rows
  size_t line_no_ = 0;
  size_t row_line_ = 0;
  Status status_;
};

}  // namespace

std::vector<std::string> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  CsvRowParser parser(&fields);
  parser.Feed(line);
  parser.Finish();
  return fields;
}

std::string EscapeCsvField(std::string_view field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Status ReadCsv(const std::string& path, const std::string& entity_column,
               Dataset* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::Error("cannot open CSV file: " + path);
  }
  CsvRowReader rows(in);
  std::vector<std::string> header;
  if (!rows.Next(&header)) {
    return rows.status().ok() ? Status::Error("CSV file is empty: " + path)
                              : rows.status();
  }

  int entity_idx = -1;
  std::vector<std::string> attr_names;
  for (size_t i = 0; i < header.size(); ++i) {
    if (!entity_column.empty() && header[i] == entity_column) {
      entity_idx = static_cast<int>(i);
    } else {
      attr_names.push_back(header[i]);
    }
  }
  if (!entity_column.empty() && entity_idx < 0) {
    return Status::Error("entity column not found: " + entity_column);
  }

  Dataset dataset{Schema(attr_names)};
  std::unordered_map<std::string, EntityId> entity_ids;
  std::vector<std::string> fields;
  while (rows.Next(&fields)) {
    if (fields.size() != header.size()) {
      return Status::Error("CSV row " + std::to_string(rows.row_line()) +
                           " has " + std::to_string(fields.size()) +
                           " fields, header has " +
                           std::to_string(header.size()));
    }
    Record rec;
    EntityId entity = kUnknownEntity;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (static_cast<int>(i) == entity_idx) {
        auto [it, inserted] = entity_ids.emplace(
            fields[i], static_cast<EntityId>(entity_ids.size()));
        entity = it->second;
      } else {
        rec.values.push_back(std::move(fields[i]));
      }
    }
    dataset.Add(std::move(rec), entity);
  }
  if (!rows.status().ok()) return rows.status();
  *out = std::move(dataset);
  return Status::Ok();
}

Status WriteCsv(const std::string& path, const Dataset& dataset,
                const std::string& entity_column) {
  std::ofstream out_file(path);
  if (!out_file.is_open()) {
    return Status::Error("cannot open CSV file for writing: " + path);
  }
  std::vector<std::string> header;
  if (!entity_column.empty()) header.push_back(entity_column);
  for (const std::string& name : dataset.schema().names()) {
    header.push_back(name);
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out_file << ',';
    out_file << EscapeCsvField(header[i]);
  }
  out_file << '\n';
  for (RecordId id = 0; id < dataset.size(); ++id) {
    bool first = true;
    if (!entity_column.empty()) {
      out_file << std::to_string(dataset.entity(id));
      first = false;
    }
    for (std::string_view v : dataset.Values(id)) {
      if (!first) out_file << ',';
      out_file << EscapeCsvField(v);
      first = false;
    }
    out_file << '\n';
  }
  if (!out_file.good()) {
    return Status::Error("error while writing CSV file: " + path);
  }
  return Status::Ok();
}

}  // namespace sablock::data
