#include "io/csv.h"

#include <cstdio>
#include <map>

namespace ustl {

Result<std::vector<CsvRow>> ParseCsv(std::string_view content) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // row has at least one (possibly empty) field
  size_t i = 0;

  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  while (i < content.size()) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::InvalidArgument(
              "CSV parse error at byte " + std::to_string(i) +
              ": quote inside an unquoted field");
        }
        in_quotes = true;
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        field_started = true;  // a field follows the comma, even if empty
        ++i;
        break;
      case '\r':
        // Swallow; the following '\n' (or the next char) ends the row.
        ++i;
        if (i >= content.size() || content[i] != '\n') {
          end_row();
        }
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default:
        field.push_back(c);
        field_started = true;
        ++i;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV parse error: unterminated quote");
  }
  if (field_started || !field.empty() || !row.empty()) {
    end_row();
  }
  return rows;
}

std::string CsvEscapeField(std::string_view field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string WriteCsvRow(const CsvRow& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += CsvEscapeField(row[i]);
  }
  return out;
}

std::string WriteCsv(const std::vector<CsvRow>& rows) {
  std::string out;
  for (const CsvRow& row : rows) {
    out += WriteCsvRow(row);
    out.push_back('\n');
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::Internal("read error on " + path);
  return content;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool failed = std::fclose(file) != 0 || written != content.size();
  if (failed) return Status::Internal("write error on " + path);
  return Status::OK();
}

Result<ClusteredCsv> ReadClusteredCsv(std::string_view content,
                                      const std::string& cluster_column) {
  Result<std::vector<CsvRow>> rows = ParseCsv(content);
  if (!rows.ok()) return rows.status();
  if (rows->empty()) {
    return Status::InvalidArgument("clustered CSV needs a header row");
  }
  const CsvRow& header = (*rows)[0];
  size_t key_index = header.size();
  std::vector<std::string> column_names;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == cluster_column) {
      if (key_index != header.size()) {
        return Status::InvalidArgument("the header names column '" +
                                       cluster_column + "' more than once");
      }
      key_index = i;
    } else {
      column_names.push_back(header[i]);
    }
  }
  if (key_index == header.size()) {
    return Status::InvalidArgument("no column named '" + cluster_column +
                                   "' in the header");
  }

  ClusteredCsv out;
  out.table = Table(column_names);
  out.cluster_column = cluster_column;
  std::map<std::string, size_t> cluster_of_key;
  for (size_t r = 1; r < rows->size(); ++r) {
    const CsvRow& row = (*rows)[r];
    if (row.size() != header.size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(r + 1) + " has " +
          std::to_string(row.size()) + " fields, header has " +
          std::to_string(header.size()));
    }
    const std::string& key = row[key_index];
    auto [it, inserted] = cluster_of_key.emplace(key, 0);
    if (inserted) {
      it->second = out.table.AddCluster();
      out.cluster_keys.push_back(key);
    }
    std::vector<std::string> values;
    values.reserve(row.size() - 1);
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != key_index) values.push_back(row[i]);
    }
    out.table.AddRecord(it->second, std::move(values));
  }
  return out;
}

std::string WriteClusteredCsv(const ClusteredCsv& clustered) {
  CsvRow header = {clustered.cluster_column};
  for (const std::string& name : clustered.table.column_names()) {
    header.push_back(name);
  }
  std::string out = WriteCsvRow(header);
  out.push_back('\n');
  for (size_t c = 0; c < clustered.table.num_clusters(); ++c) {
    for (const std::vector<std::string>& record : clustered.table.cluster(c)) {
      CsvRow row = {clustered.cluster_keys[c]};
      for (const std::string& value : record) row.push_back(value);
      out += WriteCsvRow(row);
      out.push_back('\n');
    }
  }
  return out;
}

std::string WriteGoldenCsv(const ClusteredCsv& clustered,
                           const std::vector<GoldenRecord>& golden) {
  std::vector<CsvRow> rows;
  rows.reserve(golden.size() + 1);
  CsvRow header = {clustered.cluster_column};
  for (const std::string& name : clustered.table.column_names()) {
    header.push_back(name);
  }
  rows.push_back(std::move(header));
  for (size_t c = 0; c < golden.size(); ++c) {
    CsvRow row = {clustered.cluster_keys[c]};
    for (const auto& value : golden[c]) {
      row.push_back(value.value_or(""));
    }
    rows.push_back(std::move(row));
  }
  return WriteCsv(rows);
}

}  // namespace ustl
