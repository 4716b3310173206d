// Dataset generator CLI: writes one of the three synthetic analogs of the
// paper's datasets (Table 6) as a clustered CSV that ustl-consolidate can
// ingest.
//
//   ustl-generate --dataset address --scale 0.3 --out address.csv
//
// The CSV has two columns: `cluster` (the entity key, e.g. the EIN/ISBN/
// ISSN analog) and `value` (the attribute the paper standardizes).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/parallel.h"
#include "datagen/generators.h"
#include "io/csv.h"

namespace {

using namespace ustl;

struct Args {
  std::string dataset = "address";
  double scale = 0.3;
  uint64_t seed = 17;
  std::string out;
  int threads = 1;
  size_t columns = 1;
};

void Usage() {
  std::fprintf(stderr,
               "usage: ustl-generate [--dataset address|authorlist|"
               "journaltitle]\n"
               "                     [--scale S] [--seed N]\n"
               "                     [--columns N (default: 1)]\n"
               "                     [--threads N (default: 1; 0 = all "
               "cores)] --out FILE\n"
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
    if (std::strcmp(argv[i], "--dataset") == 0) {
      args.dataset = next("--dataset");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      args.scale = std::atof(next("--scale"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.out = next("--out");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--columns") == 0) {
      args.columns = std::strtoull(next("--columns"), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  // The upper bound also catches negative inputs wrapped by strtoull.
  if (args.out.empty() || args.scale <= 0 || args.columns == 0 ||
      args.columns > 1024) {
    std::fprintf(stderr, "--columns must be in [1, 1024]\n");
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
  std::unique_ptr<ThreadPool> pool;
  if (ResolveThreadCount(args.threads) > 1) {
    pool = std::make_unique<ThreadPool>(ResolveThreadCount(args.threads));
  }
  Status status =
      WriteStringToFile(args.out, WriteClusteredCsv(csv, pool.get()));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records in %zu clusters to %s\n",
              data.num_records(), data.num_clusters(), args.out.c_str());
  return 0;
}
