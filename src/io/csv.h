// CSV reading and writing (RFC 4180 dialect: comma-separated, double-quote
// quoting with doubled embedded quotes, CR/LF tolerant, newlines allowed
// inside quoted fields). This is the ingestion substrate for the CLI tool:
// entity-resolution output usually arrives as a CSV with a cluster-id
// column, and the standardized table goes back out the same way.
#ifndef USTL_IO_CSV_H_
#define USTL_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "consolidate/cluster.h"

namespace ustl {

using CsvRow = std::vector<std::string>;

/// Parses a whole CSV document. Rows may have differing field counts
/// (callers validate shape); an unterminated quoted field is an error.
/// A trailing newline does not produce an empty row.
Result<std::vector<CsvRow>> ParseCsv(std::string_view content);

/// Quotes a single field if it contains a comma, quote, CR or LF.
std::string CsvEscapeField(std::string_view field);

/// Renders one row (no trailing newline).
std::string WriteCsvRow(const CsvRow& row);

/// Renders a whole document with '\n' line endings.
std::string WriteCsv(const std::vector<CsvRow>& rows);

/// Reads an entire file; NotFound/Internal on failure.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (truncates) a file.
Status WriteStringToFile(const std::string& path, std::string_view content);

/// A clustered table round-tripped through CSV: the CSV must have a header
/// row; `cluster_column` names the column holding the cluster key (the
/// entity-resolution output). Records sharing a key form one cluster, in
/// first-appearance order; the key column itself is not part of the Table.
struct ClusteredCsv {
  Table table = Table({});
  /// The cluster key of each Table cluster, parallel to cluster indices.
  std::vector<std::string> cluster_keys;
  /// Name of the key column, preserved for writing back.
  std::string cluster_column;
};

/// Parses a clustered CSV document (header required).
Result<ClusteredCsv> ReadClusteredCsv(std::string_view content,
                                      const std::string& cluster_column);

/// Renders a clustered table back to CSV, cluster key first.
std::string WriteClusteredCsv(const ClusteredCsv& clustered);

/// Renders golden records (one per cluster, truth-discovery output) as a
/// CSV with the cluster key first and undecided values empty — the format
/// the consolidation CLIs write with --golden. `golden` must be parallel
/// to the clustered table's cluster indices.
std::string WriteGoldenCsv(const ClusteredCsv& clustered,
                           const std::vector<GoldenRecord>& golden);

}  // namespace ustl

#endif  // USTL_IO_CSV_H_
