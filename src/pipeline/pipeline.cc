#include "pipeline/pipeline.h"

#include <algorithm>
#include <climits>

#include "serve/service.h"

namespace ustl {

ColumnScheduler::ColumnScheduler(PipelineOptions options)
    : options_(std::move(options)) {}

PipelineRun ColumnScheduler::Run(Table* table,
                                 VerificationOracle* backend) const {
  // One-shot delegation to the serving layer: a fresh service scoped to
  // this call (cold broker and search cache, per the historical per-Run
  // lifetime), one request, drained synchronously. The service reproduces
  // the scheduler's budgeting — max_concurrent_jobs = 1 is the serial
  // column loop with the whole budget handed to each engine; otherwise
  // jobs split the budget — and its commit/fingerprint discipline is the
  // one this layer pioneered, so output is unchanged byte for byte.
  ServiceOptions service_options;
  service_options.framework = options_.framework;
  service_options.num_threads = options_.num_threads;
  // Unlike the open-ended service, this facade knows the whole workload
  // is one table: capping concurrent jobs at the column count makes the
  // per-job split budget / min(budget, columns), so a wide budget over a
  // narrow table still reaches the grouping engines instead of idling.
  service_options.max_concurrent_jobs =
      options_.column_parallel
          ? static_cast<int>(std::min<size_t>(
                table->num_columns(), static_cast<size_t>(INT_MAX)))
          : 1;
  service_options.broker = options_.broker;
  ConsolidationService service(backend, service_options);
  RequestOptions request_options;
  request_options.trace_sink = options_.trace_sink;
  const uint64_t handle = service.Submit(table, std::move(request_options));
  RequestResult result = service.Wait(handle);

  PipelineRun run;
  run.per_column = std::move(result.per_column);
  run.golden_records = std::move(result.golden_records);
  run.oracle_stats = service.stats().oracle;
  run.approved_log = service.ApprovedLog();
  return run;
}

PipelineRun RunConsolidationPipeline(Table* table,
                                     VerificationOracle* backend,
                                     const PipelineOptions& options) {
  return ColumnScheduler(options).Run(table, backend);
}

std::string FingerprintConsolidation(const Table& table,
                                     const std::vector<GoldenRecord>& golden) {
  // Length-free field/record separators are fine here: the fingerprint
  // only ever compares equal-shaped outputs of the same input table.
  std::string out;
  for (size_t c = 0; c < table.num_clusters(); ++c) {
    for (const auto& record : table.cluster(c)) {
      for (const std::string& value : record) {
        out += value;
        out += '\x1f';
      }
      out += '\x1e';
    }
    out += '\n';
  }
  for (const GoldenRecord& record : golden) {
    for (const auto& value : record) {
      out += value.value_or("<none>");
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

}  // namespace ustl
