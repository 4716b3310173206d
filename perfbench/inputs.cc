// Workload inputs: datagen tables written as clustered CSV, the simulated
// human's ground truth, the evaluation samples and the serial references.
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "pipeline/pipeline.h"

namespace ustl {
namespace perfbench {
namespace {

/// The ROADMAP ledger seed. Table content and arrival order are pinned to
/// it, so every --seed does the same work (README.md, "Seeds"); --seed
/// draws the entity keys of the CSVs.
constexpr uint64_t kLedgerSeed = 7;
/// Distinct datagen seeds of the small_stream tables (per family).
constexpr uint64_t kStreamTables = 8;
/// A repeated table arrives again this many distinct arrivals later.
constexpr size_t kRepeatLag = 4;
/// Open-loop interval: about half the rate the service sustains on the
/// stream (measured at 3 threads; see README.md).
constexpr int64_t kStreamInterarrivalUs = 120000;

struct TableSpec {
  std::string family;
  double scale = 0.0;
  uint64_t data_seed = 0;
};

GeneratedDataset Generate(const TableSpec& spec) {
  if (spec.family == "address") {
    AddressGenOptions options;
    options.scale = spec.scale;
    options.seed = spec.data_seed;
    return GenerateAddressDataset(options);
  }
  if (spec.family == "journaltitle") {
    JournalTitleGenOptions options;
    options.scale = spec.scale;
    options.seed = spec.data_seed;
    return GenerateJournalTitleDataset(options);
  }
  AuthorListGenOptions options;
  options.scale = spec.scale;
  options.seed = spec.data_seed;
  return GenerateAuthorListDataset(options);
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

std::string FormatScale(double scale) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%.2f", scale);
  return buffer;
}

TableInput MakeTable(const TableSpec& spec, uint64_t seed,
                     const std::string& work_dir) {
  TableInput table;
  table.family = spec.family;
  table.name = spec.family + "-" + FormatScale(spec.scale) + "-d" +
               std::to_string(spec.data_seed);
  table.data = Generate(spec);
  uint64_t key_seed = seed;
  for (char ch : table.name) key_seed = Mix(key_seed, static_cast<unsigned char>(ch));

  ClusteredCsv csv;
  csv.cluster_column = "cluster";
  csv.table = Table({"value"});
  for (size_t c = 0; c < table.data.column.size(); ++c) {
    const size_t cluster = csv.table.AddCluster();
    char key[24];
    std::snprintf(key, sizeof(key), "e%016llx",
                  static_cast<unsigned long long>(Mix(key_seed, c)));
    csv.cluster_keys.push_back(key);
    for (const std::string& value : table.data.column[c]) {
      csv.table.AddRecord(cluster, {value});
    }
  }
  const std::string text = WriteClusteredCsv(csv);
  table.csv_path = work_dir + "/" + table.name + ".csv";
  CheckOk(WriteStringToFile(table.csv_path, text));

  const GeneratedDataset& data = table.data;
  table.samples = SampleLabeledPairs(
      data.column,
      [&data](size_t c, size_t a, size_t b) {
        return data.IsVariantCellPair(c, a, b);
      },
      1000, kLedgerSeed);
  return table;
}

bool CommonId(const GeneratedDataset& data, const StringPair& pair) {
  auto lhs = data.string_ids.find(pair.lhs);
  if (lhs == data.string_ids.end()) return false;
  auto rhs = data.string_ids.find(pair.rhs);
  if (rhs == data.string_ids.end()) return false;
  for (int id : lhs->second) {
    if (rhs->second.count(id) > 0) return true;
  }
  return false;
}

}  // namespace

Judge::Judge(const std::vector<TableInput>& tables) {
  std::vector<std::string> families;
  for (const TableInput& table : tables) {
    datasets_.push_back(&table.data);
    bool seen = false;
    for (const std::string& family : families) seen |= family == table.family;
    if (!seen) {
      families.push_back(table.family);
      family_judges_.push_back(&table.data);
    }
  }
}

const GeneratedDataset* Judge::Owner(const StringPair& pair) const {
  for (const GeneratedDataset* data : datasets_) {
    if (CommonId(*data, pair)) return data;
  }
  for (const GeneratedDataset* data : family_judges_) {
    if (data->variant_judge != nullptr && data->variant_judge(pair)) {
      return data;
    }
  }
  return nullptr;
}

bool Judge::Variant(const StringPair& pair) const {
  return Owner(pair) != nullptr;
}

int Judge::Direction(const StringPair& pair) const {
  const GeneratedDataset* owner = Owner(pair);
  if (owner == nullptr || owner->direction_judge == nullptr) return 0;
  return owner->direction_judge(pair);
}

std::unique_ptr<SimulatedOracle> MakeHuman(const Judge& judge) {
  SimulatedOracle::Options options;
  options.error_rate = 0.0;
  return std::make_unique<SimulatedOracle>(
      [&judge](const StringPair& pair) { return judge.Variant(pair); },
      [&judge](const StringPair& pair) { return judge.Direction(pair); },
      options);
}

FrameworkOptions BenchFramework() {
  FrameworkOptions framework;
  framework.budget_per_column = 100;
  return framework;
}

Inputs PrepareInputs(const std::string& workload, uint64_t seed,
                     const std::string& work_dir) {
  Inputs inputs;
  inputs.work_dir = work_dir;
  std::filesystem::create_directories(work_dir);
  WorkloadConfig& config = inputs.config;
  config.name = workload;
  std::vector<TableSpec> specs;
  if (workload == "paper3_serial" || workload == "paper3_parallel") {
    for (const char* family : {"address", "journaltitle", "authorlist"}) {
      specs.push_back({family, 0.3, kLedgerSeed});
    }
    if (workload == "paper3_serial") {
      config.num_threads = 1;
      config.grouping_threads = 1;
    } else {
      config.num_threads = 3;
      config.max_concurrent_jobs = 1;
      config.grouping_threads = 3;
    }
  } else if (workload == "small_stream") {
    for (uint64_t i = 0; i < kStreamTables; ++i) {
      specs.push_back({"address", 0.05, kLedgerSeed + i});
      specs.push_back({"journaltitle", 0.1, kLedgerSeed + i});
      specs.push_back({"authorlist", 0.1, kLedgerSeed + i});
    }
    config.num_threads = 3;
    config.grouping_threads = 1;
    config.open_loop = true;
    config.interarrival_us = kStreamInterarrivalUs;
    config.persist = true;
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }

  for (const TableSpec& spec : specs) {
    inputs.tables.push_back(MakeTable(spec, seed, work_dir));
  }
  // TableInput addresses are stable from here on; the judge points at them.
  inputs.judge = std::make_unique<Judge>(inputs.tables);

  if (!config.open_loop) {
    for (size_t t = 0; t < inputs.tables.size(); ++t) {
      inputs.arrivals.push_back(t);
    }
    return inputs;
  }
  // A fixed shuffle of first arrivals; each table's repeat follows
  // kRepeatLag first arrivals later, interleaved with them.
  std::vector<size_t> order(inputs.tables.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(kLedgerSeed);
  rng.Shuffle(&order);
  for (size_t i = 0; i < order.size() + kRepeatLag; ++i) {
    if (i < order.size()) inputs.arrivals.push_back(order[i]);
    if (i >= kRepeatLag) inputs.arrivals.push_back(order[i - kRepeatLag]);
  }
  return inputs;
}

std::vector<std::string> ReferenceFingerprints(const Inputs& inputs) {
  std::unique_ptr<SimulatedOracle> human = MakeHuman(*inputs.judge);
  std::vector<std::string> fingerprints;
  for (const TableInput& table : inputs.tables) {
    ClusteredCsv csv = CheckOk(
        ReadClusteredCsv(CheckOk(ReadFileToString(table.csv_path)), "cluster"));
    PipelineOptions options;
    options.framework = BenchFramework();
    options.num_threads = 1;
    PipelineRun run = RunConsolidationPipeline(&csv.table, human.get(), options);
    fingerprints.push_back(FingerprintConsolidation(csv.table, run.golden_records));
  }
  return fingerprints;
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

void CheckOk(const Status& status) {
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

void WorkCounters::Add(const IncrementalStats& stats) {
  searches += stats.searches;
  expansions += stats.expansions;
  cache_hits += stats.cache_hits;
  warm_hits += stats.warm_hits;
  speculative_searches += stats.speculative_searches;
}

WorkCounters& WorkCounters::operator+=(const WorkCounters& o) {
  searches += o.searches;
  expansions += o.expansions;
  cache_hits += o.cache_hits;
  warm_hits += o.warm_hits;
  speculative_searches += o.speculative_searches;
  groups_presented += o.groups_presented;
  edits += o.edits;
  return *this;
}

bool WorkCounters::operator==(const WorkCounters& o) const {
  return searches == o.searches && expansions == o.expansions &&
         cache_hits == o.cache_hits && warm_hits == o.warm_hits &&
         speculative_searches == o.speculative_searches &&
         groups_presented == o.groups_presented && edits == o.edits;
}

}  // namespace perfbench
}  // namespace ustl
