#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/timer.h"
#include "consolidate/truth_discovery.h"

namespace ustl {

namespace {

/// Deterministic content hash for head sampling (FNV-1a over column
/// names and every cell in cluster/record order, with a separator mix
/// between strings so concatenations cannot collide trivially). A pure
/// function of the table's bytes: the sampled set is identical across
/// thread counts and repeated runs.
uint64_t HashTableContent(const Table& table) {
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const std::string& text) {
    for (char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0xFFu;
    hash *= 1099511628211ull;
  };
  for (const std::string& name : table.column_names()) mix(name);
  for (size_t c = 0; c < table.num_clusters(); ++c) {
    for (const auto& row : table.cluster(c)) {
      for (const std::string& cell : row) mix(cell);
    }
  }
  return hash;
}

void AppendJsonEscaped(std::string* out, const std::string& value) {
  out->push_back('"');
  for (char c : value) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Span names the profiler gauges export self-times for: the closed set
/// the serving + persist layers open (unknown names still profile into
/// the table/dump; they just have no dedicated gauge).
const char* const kProfiledSpanNames[] = {
    "request",     "admission_wait", "column",        "candidates",
    "graph_build", "search_wave",    "oracle_batch",  "oracle_call",
    "apply",       "fuse",           "wal_append",    "fsync",
    "snapshot_write", "compaction"};

}  // namespace

// Per-column-job oracle shim: forwards every question to the service's
// shared broker, then streams the verdict as an event. One instance per
// job, so the request/column attribution needs no lookup.
class ServeEventOracle : public VerificationOracle {
 public:
  ServeEventOracle(ConsolidationService* service,
                   ConsolidationService::Request* request, size_t column)
      : service_(service), request_(request), column_(column) {}

  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    return VerifyWithContext(group_pairs, QuestionContext{});
  }

  Verdict VerifyWithContext(const std::vector<StringPair>& group_pairs,
                            const QuestionContext& context) override {
    Verdict verdict = service_->broker_.VerifyWithContext(group_pairs, context);
    // This runs once per presented group — the pipeline's hot path now
    // that it delegates here — so skip event construction (two string
    // copies) outright for the common listener-less request.
    if (!request_->on_event) return verdict;
    ServeEvent event;
    event.kind = ServeEvent::Kind::kVerdict;
    event.column = request_->table->column_names()[column_];
    event.column_index = column_;
    event.presented = context.presented;
    event.group_size = group_pairs.size();
    event.approved = verdict.approved;
    event.direction = verdict.direction;
    event.program = std::string(context.program);
    service_->Emit(*request_, std::move(event));
    return verdict;
  }

 private:
  ConsolidationService* service_;
  ConsolidationService::Request* request_;
  size_t column_;
};

ConsolidationService::ConsolidationService(VerificationOracle* backend,
                                           ServiceOptions options)
    : backend_(backend),
      options_(std::move(options)),
      budget_(ResolveThreadCount(options_.num_threads)),
      workers_(options_.max_concurrent_jobs > 0
                   ? std::min(budget_, options_.max_concurrent_jobs)
                   : budget_),
      per_job_threads_(std::max(1, budget_ / workers_)),
      retrying_(options_.enable_retry
                    ? std::make_unique<RetryingOracle>(backend_,
                                                       WireRetryOptions())
                    : nullptr),
      broker_(retrying_ != nullptr
                  ? static_cast<VerificationOracle*>(retrying_.get())
                  : backend_,
              options_.broker),
      search_cache_(options_.search_cache),
      pool_(std::make_unique<ThreadPool>(workers_ + 1)) {
  USTL_CHECK(backend_ != nullptr);
  USTL_CHECK(options_.max_pending_requests > 0);
  paused_ = options_.start_paused;
  boost_tokens_ = budget_ % workers_;
  // Diagnosis layer before RegisterMetrics (which wires its gauges) and
  // before the persist layer (which borrows the process-level context).
  if (options_.enable_profiler) {
    profiler_ = std::make_unique<ProfileAccumulator>();
  }
  if (options_.enable_flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>();
  }
  if (profiler_ != nullptr || recorder_ != nullptr) {
    service_tee_ = std::make_unique<TeeTraceSink>(
        std::vector<TraceSink*>{profiler_.get(), recorder_.get()});
    service_trace_ =
        std::make_unique<TraceContext>(service_tee_.get(), "service", epoch_);
  }
  RegisterMetrics();
  if (!options_.persist_dir.empty()) {
    // The persist layer emits into the process-level context only — its
    // spans must never reach a request's --trace-out sink (each request
    // stream closes with exactly one root).
    options_.persist.trace = service_trace_.get();
    options_.persist.fsync_latency_us = persist_fsync_latency_us_;
    // Recover BEFORE the first request can be admitted: the broker is
    // seeded with the durable prefix, then the listener attaches so only
    // genuinely new state is WAL-logged. A torn WAL tail is recovery;
    // an unreadably corrupt snapshot is a construction failure — serving
    // with silently partial warm state is the one thing this layer must
    // never do.
    Result<std::unique_ptr<DurableState>> opened =
        DurableState::Open(options_.persist_dir, options_.persist);
    if (!opened.ok()) {
      throw std::runtime_error("persist recovery failed: " +
                               opened.status().ToString());
    }
    persist_ = std::move(opened).value();
    persist_->RecoverInto(&broker_);
  }
}

void ConsolidationService::RegisterMetrics() {
  // Registry-native lifecycle counters: these ARE the service's stats
  // storage — stats(), the text/JSON scrapes and the CLI summaries all
  // read the same instruments.
  requests_admitted_ = metrics_.RegisterCounter(
      "ustl_requests_admitted_total", "Requests admitted by Submit");
  requests_completed_ = metrics_.RegisterCounter(
      "ustl_requests_completed_total", "Requests finalized (any status)");
  columns_dispatched_ = metrics_.RegisterCounter(
      "ustl_columns_dispatched_total", "Column jobs handed to workers");
  requests_cancelled_ = metrics_.RegisterCounter(
      "ustl_requests_cancelled_total", "Requests finalized with kCancelled");
  requests_deadline_exceeded_ = metrics_.RegisterCounter(
      "ustl_requests_deadline_exceeded_total",
      "Requests finalized with kDeadlineExceeded");
  aged_grants_ = metrics_.RegisterCounter(
      "ustl_aged_grants_total", "Fairness-aging out-of-cycle grants");
  handles_reaped_ = metrics_.RegisterCounter(
      "ustl_handles_reaped_total", "Unwaited results reclaimed by the GC");
  requests_rejected_ = metrics_.RegisterCounter(
      "ustl_requests_rejected_total",
      "Submits rejected with kShuttingDown after drain began");
  grouping_searches_ = metrics_.RegisterCounter(
      "ustl_grouping_searches_total", "Pivot searches run by column jobs");
  grouping_expansions_ = metrics_.RegisterCounter(
      "ustl_grouping_expansions_total", "DFS expansions spent in searches");
  grouping_joins_ = metrics_.RegisterCounter(
      "ustl_grouping_joins_total", "Posting-list joins made by searches");
  grouping_cache_hits_ = metrics_.RegisterCounter(
      "ustl_grouping_cache_hits_total",
      "Searches resolved from cross-round result reuse");
  grouping_warm_hits_ = metrics_.RegisterCounter(
      "ustl_grouping_warm_hits_total",
      "Cache hits served from cross-engine warm starts");
  grouping_speculative_searches_ = metrics_.RegisterCounter(
      "ustl_grouping_speculative_searches_total",
      "Wave searches past the serial stop point");
  admission_wait_us_ = metrics_.RegisterHistogram(
      "ustl_admission_wait_us", "Submit-to-admission wait per request",
      DefaultLatencyBucketsUs());
  request_duration_us_ = metrics_.RegisterHistogram(
      "ustl_request_duration_us", "Submit-to-finalize latency per request",
      DefaultLatencyBucketsUs());
  column_duration_us_ = metrics_.RegisterHistogram(
      "ustl_column_duration_us", "StandardizeColumn latency per column job",
      DefaultLatencyBucketsUs());
  persist_fsync_latency_us_ = metrics_.RegisterHistogram(
      "ustl_persist_fsync_latency_us", "WAL fsync wall latency",
      DefaultLatencyBucketsUs());
  flight_dumps_ = metrics_.RegisterCounter(
      "ustl_flight_dumps_total",
      "Flight-recorder dumps fired (stall / deadline / error / drain)");
  trace_sampled_ = metrics_.RegisterCounter(
      "ustl_trace_sampled_total",
      "Requests whose content hash selected them for the trace sink");
  trace_unsampled_ = metrics_.RegisterCounter(
      "ustl_trace_unsampled_total",
      "Requests head-sampled away from the trace sink");

  // The broker / search-cache / retry layers keep their pinned stats
  // structs; snapshot-time collectors copy them into gauges so one
  // scrape surfaces everything. Collectors only read and Set — metrics
  // stay write-only from the serving side (zero perturbation).
  Gauge* oracle_questions =
      metrics_.RegisterGauge("ustl_oracle_questions", "Questions asked");
  Gauge* oracle_backend_calls = metrics_.RegisterGauge(
      "ustl_oracle_backend_calls", "Questions that reached the backend");
  Gauge* oracle_cache_hits = metrics_.RegisterGauge(
      "ustl_oracle_cache_hits", "Questions served from the verdict cache");
  Gauge* oracle_batches =
      metrics_.RegisterGauge("ustl_oracle_batches", "Combined batches drained");
  Gauge* oracle_max_batch =
      metrics_.RegisterGauge("ustl_oracle_max_batch", "Largest batch drained");
  Gauge* oracle_evictions = metrics_.RegisterGauge(
      "ustl_oracle_evictions", "Verdicts dropped by the LRU bound");
  Gauge* search_lookups = metrics_.RegisterGauge(
      "ustl_search_cache_lookups", "Cross-engine warm-start lookups");
  Gauge* search_warm_starts = metrics_.RegisterGauge(
      "ustl_search_cache_warm_starts", "Lookups that found their key");
  Gauge* search_entries_served = metrics_.RegisterGauge(
      "ustl_search_cache_entries_served", "Pivots copied out by warm starts");
  Gauge* search_publishes = metrics_.RegisterGauge(
      "ustl_search_cache_publishes", "Engine result sets published");
  Gauge* search_keys =
      metrics_.RegisterGauge("ustl_search_cache_keys", "Distinct keys held");
  Gauge* search_entries =
      metrics_.RegisterGauge("ustl_search_cache_entries", "Pivots held");
  Gauge* search_evictions = metrics_.RegisterGauge(
      "ustl_search_cache_evictions", "Keys dropped by the LRU bound");
  Gauge* retry_retries =
      metrics_.RegisterGauge("ustl_retry_retries", "Re-asks after a failure");
  Gauge* retry_recovered = metrics_.RegisterGauge(
      "ustl_retry_recovered", "Verdicts that needed >= 1 retry");
  Gauge* retry_exhausted = metrics_.RegisterGauge(
      "ustl_retry_exhausted", "Questions that failed every attempt");
  Gauge* retry_breaker_opens = metrics_.RegisterGauge(
      "ustl_retry_breaker_opens", "Closed -> open breaker transitions");
  Gauge* retry_short_circuits = metrics_.RegisterGauge(
      "ustl_retry_short_circuits", "Calls answered while the breaker was open");
  Gauge* retry_replayed = metrics_.RegisterGauge(
      "ustl_retry_replayed_verdicts", "Short circuits served from replay");
  Gauge* retry_breaker_open = metrics_.RegisterGauge(
      "ustl_retry_breaker_open", "1 while the breaker is open or probing");
  Gauge* active_requests = metrics_.RegisterGauge(
      "ustl_active_requests", "Admitted, not yet finalized requests");
  Gauge* max_concurrent = metrics_.RegisterGauge(
      "ustl_max_concurrent_requests", "High-water mark of active requests");
  Gauge* persist_wal_appends = metrics_.RegisterGauge(
      "ustl_persist_wal_appends", "Durable records appended to the WAL");
  Gauge* persist_fsyncs =
      metrics_.RegisterGauge("ustl_persist_fsyncs", "WAL fsync calls");
  Gauge* persist_recovered = metrics_.RegisterGauge(
      "ustl_persist_recovered_records",
      "Records recovered on open (snapshot + WAL durable prefix)");
  Gauge* persist_truncated = metrics_.RegisterGauge(
      "ustl_persist_truncated_tail_bytes",
      "Torn-tail bytes dropped from the WAL on open");
  Gauge* persist_snapshots = metrics_.RegisterGauge(
      "ustl_persist_snapshot_writes", "Snapshots written (compaction + final)");
  metrics_.AddCollector([=] {
    const OracleBrokerStats oracle = broker_.stats();
    oracle_questions->Set(static_cast<int64_t>(oracle.questions));
    oracle_backend_calls->Set(static_cast<int64_t>(oracle.backend_calls));
    oracle_cache_hits->Set(static_cast<int64_t>(oracle.cache_hits));
    oracle_batches->Set(static_cast<int64_t>(oracle.batches));
    oracle_max_batch->Set(static_cast<int64_t>(oracle.max_batch));
    oracle_evictions->Set(static_cast<int64_t>(oracle.evictions));
    const SearchCacheStats search = search_cache_.stats();
    search_lookups->Set(static_cast<int64_t>(search.lookups));
    search_warm_starts->Set(static_cast<int64_t>(search.warm_starts));
    search_entries_served->Set(static_cast<int64_t>(search.entries_served));
    search_publishes->Set(static_cast<int64_t>(search.publishes));
    search_keys->Set(static_cast<int64_t>(search.keys));
    search_entries->Set(static_cast<int64_t>(search.entries));
    search_evictions->Set(static_cast<int64_t>(search.evictions));
    if (retrying_ != nullptr) {
      const RetryingOracleStats retry = retrying_->stats();
      retry_retries->Set(static_cast<int64_t>(retry.retries));
      retry_recovered->Set(static_cast<int64_t>(retry.recovered));
      retry_exhausted->Set(static_cast<int64_t>(retry.exhausted));
      retry_breaker_opens->Set(static_cast<int64_t>(retry.breaker_opens));
      retry_short_circuits->Set(static_cast<int64_t>(retry.short_circuits));
      retry_replayed->Set(static_cast<int64_t>(retry.replayed_verdicts));
      retry_breaker_open->Set(retrying_->breaker_open() ? 1 : 0);
    }
    if (persist_ != nullptr) {
      const PersistStats persist = persist_->stats();
      persist_wal_appends->Set(static_cast<int64_t>(persist.wal_appends));
      persist_fsyncs->Set(static_cast<int64_t>(persist.fsyncs));
      persist_recovered->Set(static_cast<int64_t>(persist.recovered_records));
      persist_truncated->Set(
          static_cast<int64_t>(persist.truncated_tail_bytes));
      persist_snapshots->Set(static_cast<int64_t>(persist.snapshot_writes));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    active_requests->Set(static_cast<int64_t>(active_.size()));
    max_concurrent->Set(static_cast<int64_t>(max_concurrent_requests_));
  });
  if (recorder_ != nullptr) {
    Gauge* recorder_spans = metrics_.RegisterGauge(
        "ustl_flight_recorder_spans", "Spans ever written to the ring");
    FlightRecorder* recorder = recorder_.get();
    metrics_.AddCollector([=] {
      recorder_spans->Set(static_cast<int64_t>(recorder->recorded()));
    });
  }
  if (profiler_ != nullptr) {
    // Collectors run under the registry mutex and cannot register, so
    // every per-name gauge the profile could ever produce is registered
    // up front from the closed set of span names the service emits.
    Gauge* profile_folded = metrics_.RegisterGauge(
        "ustl_profile_folded_spans", "Spans folded into the profile table");
    Gauge* profile_dropped = metrics_.RegisterGauge(
        "ustl_profile_dropped_spans",
        "Spans dropped by the profiler's buffering bound");
    auto wall_gauges =
        std::make_shared<std::map<std::string, Gauge*>>();
    auto cpu_gauges = std::make_shared<std::map<std::string, Gauge*>>();
    for (const char* name : kProfiledSpanNames) {
      (*wall_gauges)[name] = metrics_.RegisterGauge(
          std::string("ustl_profile_self_wall_us_") + name,
          std::string("Exclusive wall microseconds in '") + name + "' spans");
      (*cpu_gauges)[name] = metrics_.RegisterGauge(
          std::string("ustl_profile_self_cpu_us_") + name,
          std::string("Exclusive CPU microseconds in '") + name + "' spans");
    }
    ProfileAccumulator* profiler = profiler_.get();
    metrics_.AddCollector([=] {
      profile_folded->Set(static_cast<int64_t>(profiler->folded_spans()));
      profile_dropped->Set(static_cast<int64_t>(profiler->dropped_spans()));
      const auto totals = profiler->TotalsByName();
      for (const auto& [name, gauge] : *wall_gauges) {
        const auto it = totals.find(name);
        gauge->Set(it == totals.end() ? 0 : it->second.self_wall_us);
      }
      for (const auto& [name, gauge] : *cpu_gauges) {
        const auto it = totals.find(name);
        gauge->Set(it == totals.end() ? 0 : it->second.self_cpu_us);
      }
    });
  }
  RegisterProcessMetrics(&metrics_);
}

ConsolidationService::~ConsolidationService() {
  Shutdown(/*drain=*/true);
  // pool_ (declared last) is destroyed first, joining the — now idle —
  // workers before any other member goes away.
}

void ConsolidationService::Shutdown(bool drain) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!draining_) {
      draining_ = true;
      // Submits blocked on a full backlog wake up and reject.
      admission_cv_.notify_all();
    }
    if (!drain) return;
    paused_ = false;
    Pump();
    // In-flight requests finish under their own deadlines; admitting_
    // covers Submits past the admission check but still emitting their
    // kAdmitted event outside the lock.
    const auto drained = [&] {
      return active_.empty() && running_jobs_ == 0 && admitting_ == 0;
    };
    if (recorder_ != nullptr && options_.stall_threshold_ms > 0) {
      // A drain that outlives the stall threshold dumps the ring once —
      // the last chance to see what the stuck requests were doing — then
      // keeps waiting (the dump diagnoses the hang, it does not break it).
      bool dumped = false;
      while (!idle_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.stall_threshold_ms),
          drained)) {
        if (dumped) continue;
        dumped = true;
        lock.unlock();
        FireFlightDump("drain_timeout");
        lock.lock();
      }
    } else {
      idle_cv_.wait(lock, drained);
    }
    if (final_snapshot_done_) return;
    final_snapshot_done_ = true;
  }
  // Final snapshot outside mutex_: ExportDurableState takes the broker
  // mutex and WriteSnapshot fsyncs. The drain already completed, so no
  // new state can race past the export.
  if (persist_ != nullptr) {
    broker_.SetDurabilityListener(nullptr);
    (void)persist_->WriteSnapshot(broker_.ExportDurableState());
    (void)persist_->Flush();
  }
}

uint64_t ConsolidationService::Submit(Table* table, RequestOptions options) {
  USTL_CHECK(table != nullptr);
  auto owned = std::make_unique<Request>();
  Request* request = owned.get();
  request->table = table;
  request->framework =
      options.framework.has_value() ? *options.framework : options_.framework;
  request->on_event = std::move(options.on_event);
  // Armed before admission, so the deadline covers backlog queueing time
  // — the client-facing latency bound, not a processing-time bound.
  request->cancel.SetDeadlineMs(options.deadline_ms);
  const size_t num_columns = table->num_columns();
  request->columns.resize(num_columns);
  request->results.resize(num_columns);
  // Extracted before admission so a blocked Submit holds no lock while
  // copying a large table.
  for (size_t col = 0; col < num_columns; ++col) {
    request->columns[col] = table->ExtractColumn(col);
  }

  // Time origin of the admission-wait histogram and (when traced) the
  // request root span: right before the backlog wait, so both measure
  // the client-facing queueing latency.
  request->submit_time = SteadyNow();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // admitting_ reserves this request's backlog slot across the unlock
    // below, so concurrent Submits cannot all pass the check before any
    // of them is counted — the bound holds under contention. A drain
    // releases every blocked Submit immediately: they reject below.
    admission_cv_.wait(lock, [&] {
      return draining_ ||
             active_.size() + admitting_ < options_.max_pending_requests;
    });
    if (draining_) {
      // Shutdown began: never admit. The handle comes back pre-completed
      // so the caller's usual Wait sees the typed status instead of a
      // special return value; its stream (if any) is one kRequestDone.
      request->id = next_id_++;
      request->label = options.label.empty()
                           ? "request-" + std::to_string(request->id)
                           : std::move(options.label);
      request->columns.clear();
      request->results.clear();
      request->status = RequestStatus::kShuttingDown;
      request->done = true;
      const uint64_t id = request->id;
      requests_.emplace(id, std::move(owned));
      retained_.push_back(id);
      ReapRetained();
      lock.unlock();
      requests_rejected_->Increment();
      ServeEvent rejected;
      rejected.kind = ServeEvent::Kind::kRequestDone;
      rejected.status = RequestStatus::kShuttingDown;
      Emit(*request, std::move(rejected));
      return id;
    }
    ++admitting_;
    request->id = next_id_++;
    request->arrival = next_arrival_++;
    request->label = options.label.empty()
                         ? "request-" + std::to_string(request->id)
                         : std::move(options.label);
    request->last_grant_seq = grant_seq_;  // aging clock starts at admission
    requests_.emplace(request->id, std::move(owned));
  }
  requests_admitted_->Increment();
  admission_wait_us_->Observe(MicrosSince(request->submit_time));
  // Head sampling gates only the caller's sink: the decision is a pure
  // function of request *content* (not arrival order or thread), so the
  // same table is sampled — or not — on every run, and a sampled run
  // stays byte-identical to an unsampled one.
  TraceSink* user_sink = options.trace_sink;
  if (user_sink != nullptr && options_.trace_sample > 1) {
    if (HashTableContent(*table) % options_.trace_sample == 0) {
      trace_sampled_->Increment();
    } else {
      trace_unsampled_->Increment();
      user_sink = nullptr;
    }
  }
  // The diagnosis sinks (profiler, recorder) see every request's spans
  // regardless of sampling; the tee fans one emission out to whichever
  // of the three are live.
  if (user_sink != nullptr || profiler_ != nullptr || recorder_ != nullptr) {
    request->tee = std::make_unique<TeeTraceSink>(std::vector<TraceSink*>{
        user_sink, profiler_ ? profiler_.get() : nullptr,
        recorder_ ? recorder_.get() : nullptr});
    // The trace request id suffixes the handle so it stays unique even
    // when labels repeat (warm rounds resubmit the same table name).
    request->trace = std::make_unique<TraceContext>(
        request->tee.get(),
        request->label + "#" + std::to_string(request->id), epoch_);
    // Reserve span id 1 for the request root: every other span nests
    // under it, and the root itself is emitted at finalize (interval
    // [submit_time, finalize]) — consumers buffer and re-order on id.
    request->root_span = request->trace->NextSpanId();
    TraceSpan admission;
    admission.request_id = request->trace->request_id();
    admission.id = request->trace->NextSpanId();
    admission.parent = request->root_span;
    admission.name = "admission_wait";
    admission.start_us = DurationMicros(epoch_, request->submit_time);
    admission.end_us = request->trace->NowMicros();
    request->trace->sink()->Emit(admission);
  }

  // Emitted before the request enters active_, so its event stream is
  // guaranteed to open with kAdmitted — a worker cannot pick (and emit
  // verdicts for) a request the consumer has not seen admitted. Emit
  // never runs under mutex_, so a callback may read service state
  // (stats(), CompletionOrder()); it still must not Submit/Wait (see
  // RequestOptions::on_event).
  ServeEvent event;
  event.kind = ServeEvent::Kind::kAdmitted;
  Emit(*request, std::move(event));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    --admitting_;
    active_.push_back(request);
    max_concurrent_requests_ =
        std::max(max_concurrent_requests_, active_.size());
    Pump();
  }
  // A zero-column table has no jobs for the workers to complete it with;
  // finalize inline (FinalizeRequest expects the request in active_).
  if (num_columns == 0) FinalizeRequest(request);
  return request->id;
}

RequestResult ConsolidationService::Wait(uint64_t handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = requests_.find(handle);
  USTL_CHECK(it != requests_.end());
  Request* request = it->second.get();
  request->waiting = true;  // pins the handle against the GC
  done_cv_.wait(lock, [&] { return request->done; });
  std::exception_ptr error = request->error;
  RequestResult result = std::move(request->result);
  result.status = request->status;
  auto retained = std::find(retained_.begin(), retained_.end(), handle);
  if (retained != retained_.end()) retained_.erase(retained);
  requests_.erase(it);
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
  return result;
}

void ConsolidationService::Cancel(uint64_t handle) {
  // Trips the shared state only; workers observe it at their next
  // checkpoint and the finalize path turns it into a typed status. Takes
  // mutex_ but never event_mutex_, so calling from an on_event callback
  // cannot self-deadlock.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = requests_.find(handle);
  if (it == requests_.end() || it->second->done) return;
  it->second->cancel.Cancel(RequestStatus::kCancelled);
}

void ConsolidationService::Resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  Pump();
}

std::vector<uint64_t> ConsolidationService::CompletionOrder() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completion_order_;
}

ServiceStats ConsolidationService::stats() const {
  ServiceStats out;
  out.oracle = broker_.stats();
  out.search_cache = search_cache_.stats();
  if (retrying_ != nullptr) out.retry = retrying_->stats();
  // The lifecycle counters live in the registry now; ServiceStats is a
  // read-through view of the same instruments the scrape exports.
  out.requests_admitted = requests_admitted_->Value();
  out.requests_completed = requests_completed_->Value();
  out.columns_dispatched = columns_dispatched_->Value();
  out.requests_cancelled = requests_cancelled_->Value();
  out.requests_deadline_exceeded = requests_deadline_exceeded_->Value();
  out.aged_grants = aged_grants_->Value();
  out.handles_reaped = handles_reaped_->Value();
  out.requests_rejected = requests_rejected_->Value();
  if (persist_ != nullptr) out.persist = persist_->stats();
  std::lock_guard<std::mutex> lock(mutex_);
  out.max_concurrent_requests = max_concurrent_requests_;
  return out;
}

std::vector<ApprovedTransformation> ConsolidationService::ApprovedLog() const {
  return broker_.ApprovedLog();
}

void ConsolidationService::Pump() {
  if (paused_) return;
  size_t pending = 0;
  for (const Request* request : active_) {
    // >= guards the subtraction: a finalizing request drops its working
    // copies before leaving active_ (both under mutex_, but belt and
    // braces against any future reordering — an underflow here would ask
    // for ~2^64 jobs).
    if (request->dispatched >= request->columns.size()) continue;
    pending += request->columns.size() - request->dispatched;
  }
  while (running_jobs_ < workers_ && pending > 0) {
    ++running_jobs_;
    --pending;
    pool_->Submit([this] { RunJobs(); });
  }
}

bool ConsolidationService::PickJob(Request** request, size_t* column) {
  // Fairness aging: one grant per cycle is no guarantee when continuous
  // fresh arrivals keep the cycle from ever closing — each newcomer is
  // hungry in the *current* cycle, so a huge table that already took its
  // grant can wait unboundedly for cycle_ to advance. A request passed
  // over for aging_grant_threshold consecutive grants takes the next slot
  // out of turn (oldest grant first, arrival breaking ties).
  if (options_.aging_grant_threshold > 0) {
    Request* starved = nullptr;
    for (Request* candidate : active_) {
      if (candidate->dispatched >= candidate->columns.size()) continue;
      if (grant_seq_ - candidate->last_grant_seq <
          options_.aging_grant_threshold) {
        continue;
      }
      if (starved == nullptr ||
          candidate->last_grant_seq < starved->last_grant_seq ||
          (candidate->last_grant_seq == starved->last_grant_seq &&
           candidate->arrival < starved->arrival)) {
        starved = candidate;
      }
    }
    if (starved != nullptr) {
      aged_grants_->Increment();
      starved->granted_cycle = cycle_;
      starved->last_grant_seq = ++grant_seq_;
      *request = starved;
      *column = starved->dispatched++;
      return true;
    }
  }
  // Weighted round-robin (see the file comment): one column per request
  // per cycle, requests within a cycle ordered fewest-remaining-first
  // with arrival breaking ties.
  for (;;) {
    Request* pick = nullptr;
    bool any_undispatched = false;
    for (Request* candidate : active_) {
      if (candidate->dispatched >= candidate->columns.size()) continue;
      any_undispatched = true;
      if (candidate->granted_cycle >= cycle_) continue;  // served this cycle
      if (pick == nullptr) {
        pick = candidate;
        continue;
      }
      const size_t candidate_left =
          candidate->columns.size() - candidate->dispatched;
      const size_t pick_left = pick->columns.size() - pick->dispatched;
      if (candidate_left < pick_left ||
          (candidate_left == pick_left &&
           candidate->arrival < pick->arrival)) {
        pick = candidate;
      }
    }
    if (pick == nullptr) {
      if (!any_undispatched) return false;
      ++cycle_;  // every hungry request was served this cycle; next round
      continue;
    }
    pick->granted_cycle = cycle_;
    pick->last_grant_seq = ++grant_seq_;
    *request = pick;
    *column = pick->dispatched++;
    return true;
  }
}

void ConsolidationService::RunJobs() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Request* request = nullptr;
    size_t column = 0;
    if (paused_ || !PickJob(&request, &column)) break;
    columns_dispatched_->Increment();
    // Take a budget-remainder boost token when one is free (returned
    // below), so the whole --threads budget reaches the engines even
    // when it does not divide evenly across the workers.
    const bool boosted = boost_tokens_ > 0;
    if (boosted) --boost_tokens_;
    lock.unlock();
    ExecuteColumn(request, column, per_job_threads_ + (boosted ? 1 : 0));
    if (boosted) {
      std::lock_guard<std::mutex> boost_lock(mutex_);
      ++boost_tokens_;
    }

    // Fold the column's grouping work into the registry counters (the
    // engines themselves stay registry-free). Zeros for a cancelled
    // column whose result was never written.
    {
      const IncrementalStats& grouping = request->results[column].grouping;
      grouping_searches_->Increment(grouping.searches);
      grouping_expansions_->Increment(grouping.expansions);
      grouping_joins_->Increment(grouping.joins);
      grouping_cache_hits_->Increment(grouping.cache_hits);
      grouping_warm_hits_->Increment(grouping.warm_hits);
      grouping_speculative_searches_->Increment(grouping.speculative_searches);
    }

    // Emit before publishing completion: as long as this column is not
    // counted done, no other worker can finalize the request, so the
    // request cannot be erased by a concurrent Wait under our feet.
    if (request->on_event) {
      const ColumnRunResult& result = request->results[column];
      ServeEvent event;
      event.kind = ServeEvent::Kind::kColumnDone;
      event.column = request->table->column_names()[column];
      event.column_index = column;
      event.groups_presented = result.groups_presented;
      event.groups_approved = result.groups_approved;
      event.edits = result.edits;
      Emit(*request, std::move(event));
    }

    lock.lock();
    ++request->completed;
    const bool last_column = request->completed == request->columns.size();
    lock.unlock();
    // completed == columns implies dispatched == columns, so exactly one
    // worker — the one finishing the last column — finalizes.
    if (last_column) FinalizeRequest(request);
    lock.lock();
  }
  --running_jobs_;
  idle_cv_.notify_all();
}

void ConsolidationService::ExecuteColumn(Request* request, size_t column,
                                         int grouping_threads) {
  try {
    CancelToken token(&request->cancel);
    // A cancelled / expired request's remaining columns are no-ops: the
    // job still runs (completion accounting needs it) but does no work,
    // which is what bounds cancel latency to the in-flight columns'
    // checkpoint distance.
    token.Check();
    FrameworkOptions framework = request->framework;
    framework.cancel = token;
    framework.request_id = request->id;
    framework.column_name = request->table->column_names()[column];
    framework.grouping.num_threads = grouping_threads;
    framework.grouping.shared_search_cache = &search_cache_;
    if (framework.progress_callback != nullptr && workers_ > 1) {
      auto callback = request->framework.progress_callback;
      framework.progress_callback = [this, callback](size_t presented,
                                                     const Column& state) {
        std::lock_guard<std::mutex> lock(progress_mutex_);
        callback(presented, state);
      };
    }
    // Column span under the request root; everything the framework and
    // the layers below it open nests under this span's id (inert — id
    // 0 — for an untraced request).
    ScopedSpan column_span(request->trace.get(), request->root_span, "column",
                           framework.column_name);
    framework.trace = request->trace.get();
    framework.trace_parent = column_span.id();
    ServeEventOracle oracle(this, request, column);
    const Timer column_timer;
    request->results[column] =
        StandardizeColumn(&request->columns[column], &oracle, framework);
    column_duration_us_->Observe(column_timer.ElapsedMicros());
  } catch (const CancelledError&) {
    // The expected unwind of a cancelled / past-deadline request: not an
    // error. The terminal status lives in request->cancel; the finalize
    // path turns it into the typed result and commits nothing.
  } catch (...) {
    // First failure wins; the request still drains (remaining columns run
    // and the broker stays usable) and Wait rethrows.
    std::lock_guard<std::mutex> lock(mutex_);
    if (request->error == nullptr) request->error = std::current_exception();
  }
}

void ConsolidationService::FinalizeRequest(Request* request) {
  // Poll (not a raw read) so a deadline that expired without any
  // checkpoint observing it still latches here — the status a client
  // sees is decided once, at finalize.
  const RequestStatus status = request->cancel.Poll();
  request->status =
      request->error != nullptr ? RequestStatus::kError : status;
  if (request->error == nullptr && status == RequestStatus::kOk) {
    // The only mutation of the caller's table, in column index order —
    // same commit discipline as the pipeline. A cancelled / expired
    // request skips this: its table stays exactly as submitted.
    ScopedSpan fuse_span(request->trace.get(), request->root_span, "fuse");
    for (size_t col = 0; col < request->columns.size(); ++col) {
      request->table->StoreColumn(col, request->columns[col]);
    }
    request->result.per_column = std::move(request->results);
    request->result.golden_records = MajorityConsensus(*request->table);
    fuse_span.AddAttr(
        "golden_records",
        static_cast<int64_t>(request->result.golden_records.size()));
  }
  if (request->status == RequestStatus::kCancelled ||
      request->status == RequestStatus::kDeadlineExceeded) {
    ServeEvent cancelled;
    cancelled.kind = ServeEvent::Kind::kCancelled;
    cancelled.status = request->status;
    Emit(*request, std::move(cancelled));
  }

  ServeEvent event;
  event.kind = ServeEvent::Kind::kRequestDone;
  event.status = request->status;
  for (const ColumnRunResult& result : request->result.per_column) {
    event.groups_presented += result.groups_presented;
    event.groups_approved += result.groups_approved;
    event.edits += result.edits;
  }
  // Emit before `done` is published: once done is observable, a waiting
  // thread may erase the request.
  Emit(*request, std::move(event));

  request_duration_us_->Observe(MicrosSince(request->submit_time));
  if (request->trace != nullptr) {
    // The root span, emitted last with its reserved id 1 and the full
    // [submit, finalize] interval; children were emitted as they closed.
    TraceSpan root;
    root.request_id = request->trace->request_id();
    root.id = request->root_span;
    root.parent = 0;
    root.name = "request";
    root.detail = request->label;
    root.start_us = DurationMicros(epoch_, request->submit_time);
    root.end_us = request->trace->NowMicros();
    root.attrs.emplace_back("status", static_cast<int64_t>(request->status));
    request->trace->sink()->Emit(root);
  }

  // A request that ends badly dumps the ring while it is still in
  // active_, so the dump's per-request progress includes the culprit.
  // mutex_ is NOT held here (FireFlightDump takes it).
  if (recorder_ != nullptr &&
      (request->status == RequestStatus::kDeadlineExceeded ||
       request->status == RequestStatus::kError)) {
    FireFlightDump(request->status == RequestStatus::kError
                       ? "error"
                       : "deadline_exceeded");
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The working copies are committed (or abandoned on error); drop them
    // now instead of pinning a full table until Wait collects the handle.
    // Released under mutex_, NOT earlier: this request is still in
    // active_, and PickJob/Pump distinguish "fully dispatched" from
    // "hungry" by comparing dispatched against columns.size() — shrinking
    // columns outside the lock made a finalizing request look like it had
    // undispatched work, handing a worker an out-of-range column index.
    request->columns.clear();
    request->columns.shrink_to_fit();
    request->results.clear();
    request->results.shrink_to_fit();
    request->done = true;
    completion_order_.push_back(request->id);
    requests_completed_->Increment();
    if (request->status == RequestStatus::kCancelled) {
      requests_cancelled_->Increment();
    }
    if (request->status == RequestStatus::kDeadlineExceeded) {
      requests_deadline_exceeded_->Increment();
    }
    active_.erase(std::find(active_.begin(), active_.end(), request));
    if (!request->waiting) {
      retained_.push_back(request->id);
      ReapRetained();
    }
    done_cv_.notify_all();
    admission_cv_.notify_all();
    // A zero-column request finalizes on the Submit thread with no worker
    // exit to signal idleness — a draining Shutdown must still wake.
    idle_cv_.notify_all();
  }
  MaybeCompact();
}

void ConsolidationService::MaybeCompact() {
  if (persist_ == nullptr || !persist_->ShouldCompact()) return;
  // Export (broker mutex) then write (persist mutex + fsync), with
  // mutex_ NOT held: dispatch keeps flowing while the snapshot lands.
  // Concurrent finalizes may both compact; the writes just serialize.
  (void)persist_->WriteSnapshot(broker_.ExportDurableState());
}

void ConsolidationService::ReapRetained() {
  if (options_.max_retained_results == 0) return;
  while (retained_.size() > options_.max_retained_results) {
    const uint64_t victim = retained_.front();
    retained_.pop_front();
    auto it = requests_.find(victim);
    if (it == requests_.end()) continue;  // collected by Wait meanwhile
    Request* request = it->second.get();
    if (request->waiting) continue;  // a Wait arrived; let it collect
    request->result = RequestResult{};
    request->error = nullptr;
    request->status = RequestStatus::kReaped;
    request->reaped = true;
    handles_reaped_->Increment();
  }
}

void ConsolidationService::Emit(Request& request, ServeEvent event) {
  if (!request.on_event) return;
  event.request = request.id;
  event.label = request.label;
  std::lock_guard<std::mutex> lock(event_mutex_);
  // Sequence numbers are per request and assigned at emission under the
  // event lock, so the stream a consumer sees is totally ordered even
  // when the request's column jobs emit concurrently. The timestamp is
  // service-relative (monotonic, no wall clock). Both are scheduling-
  // dependent: determinism comparisons exclude them.
  event.seq = ++request.next_event_seq;
  event.ts_us = MicrosSince(epoch_);
  request.on_event(event);
}

void ConsolidationService::EmitForRequestId(uint64_t id, ServeEvent event) {
  if (id == 0) return;
  Request* request = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = requests_.find(id);
    if (it == requests_.end()) return;
    request = it->second.get();
  }
  // Safe outside the lock: the attributed request is blocked inside the
  // broker on the very question being retried, so it cannot finalize (and
  // be erased by Wait) while we emit.
  Emit(*request, std::move(event));
}

size_t ConsolidationService::CheckStalls() {
  if (recorder_ == nullptr || options_.stall_threshold_ms <= 0) return 0;
  const int64_t threshold_us = options_.stall_threshold_ms * 1000;
  size_t stalled = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Request* request : active_) {
      if (request->stall_dumped) continue;
      if (MicrosSince(request->submit_time) < threshold_us) continue;
      // Latched: a request that keeps stalling dumps once, not once per
      // watchdog tick. The flag lives on the request, so a later NEW
      // stalled request still triggers a fresh dump.
      request->stall_dumped = true;
      ++stalled;
    }
  }
  // One dump covers every request that crossed the threshold this tick —
  // the ring and the progress table already describe all of them.
  if (stalled > 0) FireFlightDump("stall");
  return stalled;
}

void ConsolidationService::FireFlightDump(const char* reason) {
  if (recorder_ == nullptr) return;
  // Subsystem stats first, each under its own lock, with mutex_ NOT held
  // (broker stats + persist stats take their own mutexes; taking them
  // under mutex_ would order locks against the dispatch path).
  const OracleBrokerStats broker = broker_.stats();
  uint64_t retries = 0;
  uint64_t short_circuits = 0;
  bool breaker_open = false;
  if (retrying_ != nullptr) {
    const RetryingOracleStats retry = retrying_->stats();
    retries = retry.retries;
    short_circuits = retry.short_circuits;
    breaker_open = retrying_->breaker_open();
  }
  PersistStats persist;
  if (persist_ != nullptr) persist = persist_->stats();

  // Progress table under mutex_: where every admitted-but-unfinished
  // request is stuck (columns dispatched vs done, how long it has been
  // in flight). This is the part a post-mortem cannot reconstruct from
  // the span ring alone.
  std::string context = "{\"requests\": [";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const Request* request : active_) {
      if (!first) context += ", ";
      first = false;
      context += "{\"id\": " + std::to_string(request->id) + ", \"label\": ";
      AppendJsonEscaped(&context, request->label);
      context += ", \"columns\": " + std::to_string(request->columns.size()) +
                 ", \"dispatched\": " + std::to_string(request->dispatched) +
                 ", \"completed\": " + std::to_string(request->completed) +
                 ", \"age_us\": " +
                 std::to_string(MicrosSince(request->submit_time)) + "}";
    }
  }
  // Zeros when a subsystem is absent: the dump schema is stable, so
  // check_trace.py validates one shape regardless of configuration.
  context += "], \"broker\": {\"pending\": " + std::to_string(broker.pending) +
             ", \"questions\": " + std::to_string(broker.questions) +
             ", \"backend_calls\": " + std::to_string(broker.backend_calls) +
             ", \"cache_hits\": " + std::to_string(broker.cache_hits) +
             "}, \"retry\": {\"breaker_open\": " +
             (breaker_open ? std::string("true") : std::string("false")) +
             ", \"retries\": " + std::to_string(retries) +
             ", \"short_circuits\": " + std::to_string(short_circuits) +
             "}, \"persist\": {\"wal_appends\": " +
             std::to_string(persist.wal_appends) +
             ", \"fsyncs\": " + std::to_string(persist.fsyncs) +
             ", \"snapshot_writes\": " + std::to_string(persist.snapshot_writes) +
             "}}";

  const std::string dump =
      recorder_->DumpJson(reason, MicrosSince(epoch_), context);
  flight_dumps_->Increment();
  if (options_.flight_dump_sink) options_.flight_dump_sink(dump);
}

RetryingOracle::Options ConsolidationService::WireRetryOptions() {
  RetryingOracle::Options retry = options_.retry;
  auto user_retry = retry.on_retry;
  retry.on_retry = [this, user_retry](uint64_t id, int attempt) {
    ServeEvent event;
    event.kind = ServeEvent::Kind::kRetried;
    event.attempt = attempt;
    EmitForRequestId(id, std::move(event));
    if (user_retry) user_retry(id, attempt);
  };
  auto user_breaker = retry.on_breaker;
  retry.on_breaker = [this, user_breaker](uint64_t id, bool open) {
    ServeEvent event;
    event.kind = ServeEvent::Kind::kBreakerOpen;
    event.status = open ? RequestStatus::kError : RequestStatus::kOk;
    EmitForRequestId(id, std::move(event));
    if (user_breaker) user_breaker(id, open);
  };
  return retry;
}

}  // namespace ustl
