// Dataset generator CLI: writes one of the three synthetic analogs of the
// paper's datasets (Table 6) as a clustered CSV that ustl-consolidate can
// ingest.
//
//   ustl-generate --dataset address --scale 0.3 --out address.csv
//
// The CSV has two columns: `cluster` (the entity key, e.g. the EIN/ISBN/
// ISSN analog) and `value` (the attribute the paper standardizes).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "common/string_util.h"
#include "datagen/generators.h"
#include "io/csv.h"

namespace {

using namespace ustl;

struct Args {
  std::string dataset = "address";
  double scale = 0.3;
  uint64_t seed = 17;
  std::string out;
  size_t columns = 1;
};

void Usage() {
  std::fprintf(stderr,
               "usage: ustl-generate [--dataset address|authorlist|"
               "journaltitle]\n"
               "                     [--scale S] [--seed N]\n"
               "                     [--columns N (default: 1)] --out FILE\n"
               "\n"
               "--columns N replicates the generated attribute into N "
               "columns\n(value1..valueN), producing a multi-column table "
               "whose columns pose\nidentical verification questions — "
               "the workload that exercises the\nconsolidation pipeline's "
               "column scheduler and oracle cache.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    // A strictly parsed integer flag value in [low, high]; anything else
    // is a malformed command line.
    auto next_unsigned = [&](const char* flag, uint64_t low,
                             uint64_t high) -> uint64_t {
      const char* value = next(flag);
      const std::optional<uint64_t> parsed = ParseUnsigned(value);
      if (!parsed || *parsed < low || *parsed > high) {
        std::fprintf(stderr,
                     "%s must be an integer in [%llu, %llu], got '%s'\n", flag,
                     static_cast<unsigned long long>(low),
                     static_cast<unsigned long long>(high), value);
        Usage();
        std::exit(2);
      }
      return *parsed;
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      args.dataset = next("--dataset");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      // The whole string must be a finite number above 0 (atof would
      // read "abc" as 0 and "2x" as 2).
      const char* value = next("--scale");
      const char* end = value + std::strlen(value);
      const std::from_chars_result parsed =
          std::from_chars(value, end, args.scale);
      if (parsed.ec != std::errc() || parsed.ptr != end ||
          !std::isfinite(args.scale) || args.scale <= 0) {
        std::fprintf(stderr, "--scale must be a number above 0, got '%s'\n",
                     value);
        Usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed =
          next_unsigned("--seed", 0, std::numeric_limits<uint64_t>::max());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.out = next("--out");
    } else if (std::strcmp(argv[i], "--columns") == 0) {
      args.columns = next_unsigned("--columns", 1, 1024);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (args.out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    Usage();
    return 2;
  }

  GeneratedDataset data;
  if (args.dataset == "address") {
    AddressGenOptions options;
    options.scale = args.scale;
    options.seed = args.seed;
    data = GenerateAddressDataset(options);
  } else if (args.dataset == "authorlist") {
    AuthorListGenOptions options;
    options.scale = args.scale;
    options.seed = args.seed;
    data = GenerateAuthorListDataset(options);
  } else if (args.dataset == "journaltitle") {
    JournalTitleGenOptions options;
    options.scale = args.scale;
    options.seed = args.seed;
    data = GenerateJournalTitleDataset(options);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", args.dataset.c_str());
    Usage();
    return 2;
  }

  ClusteredCsv csv;
  csv.cluster_column = "cluster";
  std::vector<std::string> column_names;
  if (args.columns == 1) {
    column_names.push_back("value");
  } else {
    for (size_t i = 1; i <= args.columns; ++i) {
      column_names.push_back("value" + std::to_string(i));
    }
  }
  csv.table = Table(column_names);
  for (size_t c = 0; c < data.column.size(); ++c) {
    size_t cluster = csv.table.AddCluster();
    csv.cluster_keys.push_back("c" + std::to_string(c));
    for (const std::string& value : data.column[c]) {
      csv.table.AddRecord(cluster,
                          std::vector<std::string>(args.columns, value));
    }
  }
  Status status = WriteStringToFile(args.out, WriteClusteredCsv(csv));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records in %zu clusters to %s\n",
              data.num_records(), data.num_clusters(), args.out.c_str());
  return 0;
}
