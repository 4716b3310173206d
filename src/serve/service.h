// The long-lived consolidation service (ROADMAP "Multi-table serving").
// The pipeline's ColumnScheduler standardizes one table per Run call and
// throws its warm state away afterwards; a serving deployment faces a
// *stream* of independent tables and wants the opposite: one ThreadPool,
// one OracleBroker (verdict cache + replay log persisting across
// requests) and one cross-engine SearchResultCache, alive for the
// process lifetime, with concurrent tables admitted fairly and verdicts
// streamed back per request — the shape long-lived query engines use to
// amortize index and cache warmth over independent queries.
//
// Fairness. Each free worker slot goes to the least recently served
// request with an undispatched column: the one whose last grant (or
// admission, before its first) is oldest by the grant counter, then the
// one with the fewest undispatched columns, then the lower request id.
// A grant moves its request behind every other hungry request, so
// between two grants of one request every other admitted request is
// granted at most once: a request waits fewer than max_pending_requests
// grants for its next column, however many tables keep arriving. A small
// table admitted behind a huge one therefore runs next, and the huge
// table keeps every slot nobody else needs. Admission itself is bounded
// (ServiceOptions::max_pending_requests): Submit blocks until the
// backlog drains, the standard back-pressure contract.
//
// Determinism contract. Per-table output is byte-identical to a serial
// single-table run for ANY thread count, admission interleaving and
// cache state. The ingredients are the ones the pipeline established:
// column jobs touch only their own column and commit in index order;
// verdicts are pure functions of question content (oracle
// order-independence contract), so the shared broker cache — and its LRU
// evictions — change only how often the backend is asked; pivot-search
// results are pure functions of engine content, so the shared search
// cache changes only how many searches run. Event *interleaving* across
// concurrent requests is scheduling-dependent; the per-request event
// sequence is not.
#ifndef USTL_SERVE_SERVICE_H_
#define USTL_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "consolidate/framework.h"
#include "grouping/search_cache.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "persist/durable_state.h"
#include "pipeline/oracle_broker.h"
#include "pipeline/retrying_oracle.h"

namespace ustl {

struct ServiceOptions {
  /// Default per-request framework configuration (budget, grouping
  /// knobs...). `framework.column_name` and `framework.grouping
  /// .num_threads` are overwritten per column job; a non-null
  /// `framework.progress_callback` is serialized exactly like the
  /// pipeline's (never entered concurrently).
  FrameworkOptions framework;
  /// Total thread budget (0 = hardware concurrency): split between the
  /// concurrently running column jobs and their grouping engines, so
  /// nested parallelism never oversubscribes.
  int num_threads = 1;
  /// Cap on column jobs running simultaneously; 0 = the thread budget.
  /// 1 reproduces a strictly serial per-column loop (the pipeline's
  /// column_parallel = false) whatever the budget — each job then gets
  /// the whole budget for its grouping engine.
  int max_concurrent_jobs = 0;
  /// Shared broker configuration. The verdict cache lives as long as the
  /// service, so long-lived deployments should set
  /// `broker.max_cache_entries`.
  OracleBroker::Options broker;
  /// Bounds for the cross-engine pivot-search cache the service lends
  /// every column job (grouping/search_cache.h): a column whose content
  /// repeats an earlier column's — in this request or any previous one —
  /// skips its round-one searches, byte-identically. Like the broker's
  /// verdict cache, a long-lived service should set
  /// `search_cache.max_keys` so a stream of distinct tables cannot grow
  /// it without limit. `framework.grouping.reuse_search_results = false`
  /// keeps the engines from using it.
  SearchResultCache::Options search_cache;
  /// Bound on requests admitted but not yet completed; Submit blocks
  /// while the backlog is at the bound.
  size_t max_pending_requests = 64;
  /// Construct the service with dispatch paused: requests queue up but no
  /// column job starts until Resume(). Lets tests and benches admit a
  /// whole workload atomically so the fairness order is reproducible.
  /// Waiting on a paused service without calling Resume() deadlocks.
  bool start_paused = false;
  /// Front the backend with a RetryingOracle (bounded retries and a
  /// circuit breaker, pipeline/retrying_oracle.h), configured by `retry`.
  /// Each retry and breaker transition shows up once per channel: as an
  /// oracle_retry / breaker_state point event under the asking column's
  /// span (the request's trace and the flight recorder), in
  /// ServiceStats::retry and in the ustl_retry_* gauges. Off = the
  /// backend is called directly, exactly the pre-retry behavior.
  bool enable_retry = false;
  RetryingOracle::Options retry;
  /// Directory for durable warm state (src/persist/): the broker's
  /// verdict cache and approved log are WAL-logged as they grow,
  /// snapshotted on compaction and shutdown, and recovered into the
  /// broker before the service admits its first request. Empty (the
  /// default) = fully volatile, the pre-persistence behavior. Recovery
  /// never changes output bytes — warm state only skips backend calls
  /// (the order-independence contract) — so a restarted service is
  /// byte-identical to a cold one, just cheaper. The constructor throws
  /// std::runtime_error if the directory's state is unreadably corrupt.
  std::string persist_dir;
  /// Fsync policy / compaction thresholds for persist_dir.
  DurableState::Options persist;
  /// A request active longer than this (milliseconds) is considered
  /// stalled: the next CheckStalls() call fires one flight-recorder dump
  /// for it (latched per request). A Shutdown(drain) blocked past the
  /// threshold dumps once with reason "drain_timeout". 0 disables stall
  /// detection, and so does a threshold past the steady clock's range
  /// (it could never be reached).
  int64_t stall_threshold_ms = 0;
  /// Receives each flight-recorder dump (one JSON object, schema in
  /// obs/flight_recorder.h) — the CLI writes it to --flight-dump, tests
  /// capture it. Null: dumps are counted (ustl_flight_dumps_total) but
  /// dropped. Called outside the service mutex; must be thread-safe.
  std::function<void(const std::string&)> flight_dump_sink;
  /// CPU-attributed profiling (obs/profile.h): fold every closed span
  /// into the per-path inclusive/exclusive wall+CPU table, exposed as
  /// ustl_profile_* gauges and through profiler(). Off by default — the
  /// fold is cheap but not free, and a serving deployment opts in.
  bool enable_profiler = false;
  /// Deterministic head sampling for the per-request trace sink: a
  /// request is traced iff FNV-1a(table content) % trace_sample == 0.
  /// Pure function of request content — the sampled set is identical
  /// across thread counts and runs, so sampled sweeps stay
  /// byte-identical and replayable. 0 or 1 = trace every request that
  /// supplies a sink. Sampling gates only the request's own sink; the
  /// flight recorder and profiler always see every span.
  uint64_t trace_sample = 0;
};

/// One streamed service event. kVerdict events carry the broker's answer
/// for one presented group; kColumnDone / kRequestDone carry the
/// accumulated counters, and kRequestDone, always the request's last
/// event, its terminal status (a cancellation or deadline included).
/// Retries and breaker transitions are not ServeEvents: they are trace
/// point events and ServiceStats::retry counters (see enable_retry).
struct ServeEvent {
  enum class Kind { kAdmitted, kVerdict, kColumnDone, kRequestDone };
  Kind kind = Kind::kAdmitted;
  uint64_t request = 0;
  std::string label;
  /// Column being standardized (kVerdict / kColumnDone).
  std::string column;
  size_t column_index = 0;
  /// kVerdict: 1-based presentation rank within the column, group size,
  /// verdict and the (possibly empty) pivot program.
  size_t presented = 0;
  size_t group_size = 0;
  bool approved = false;
  ReplaceDirection direction = ReplaceDirection::kLhsToRhs;
  std::string program;
  /// kColumnDone: the column's totals. kRequestDone: the request's.
  size_t groups_presented = 0;
  size_t groups_approved = 0;
  size_t edits = 0;
  /// kRequestDone: the request's terminal status (RequestResult::status).
  RequestStatus status = RequestStatus::kOk;
  /// Ordering/timing a consumer can correlate on: `seq` is the 1-based
  /// monotonic sequence number of this event within its request (assigned
  /// at emission, so it totals the per-request stream even when column
  /// jobs emit concurrently) and `ts_us` is microseconds since service
  /// construction (monotonic clock, no wall time). Both are
  /// scheduling-dependent — determinism comparisons must exclude them
  /// (the byte-compare legs diff table output, never event streams).
  uint64_t seq = 0;
  int64_t ts_us = 0;
};

struct RequestOptions {
  /// Display label for events and logs; defaults to "request-<id>".
  std::string label;
  /// Overrides the service's default framework configuration (e.g. a
  /// per-table budget).
  std::optional<FrameworkOptions> framework;
  /// Streamed events for this request. Invocations are serialized across
  /// the whole service (one event at a time, from any request), so the
  /// callback may touch unsynchronized state; events of concurrent
  /// requests interleave in scheduling order. The callback runs under
  /// the service's event lock: it must NOT call back into the service
  /// (Submit/Wait/Resume would self-deadlock, except Cancel, which is
  /// explicitly event-callback-safe) — hand follow-up work to another
  /// thread instead.
  std::function<void(const ServeEvent&)> on_event;
  /// Wall-clock deadline for this request, armed at admission; 0 = none.
  /// A request past its deadline unwinds at the next cooperative
  /// checkpoint (column loop heads, pivot-search wave boundaries, broker
  /// waits) and finalizes with status kDeadlineExceeded: no column is
  /// committed to the table, shared caches keep only complete entries
  /// published before the trip, and other in-flight requests are
  /// untouched.
  int64_t deadline_ms = 0;
  /// Per-request trace sink (obs/trace.h; borrowed, must outlive the
  /// request). Null (the default) disables tracing at zero cost — no
  /// clock reads, no span ids. Non-null makes the service carry a
  /// TraceContext through every layer of this request: spans for the
  /// request root, admission wait, each column, graph builds, search
  /// waves, oracle calls and the final fuse, plus cache-hit and
  /// retry/breaker events. Observability only — table output is
  /// byte-identical with tracing on or off.
  TraceSink* trace_sink = nullptr;
};

/// What one request produced; the table passed to Submit has been
/// standardized in place by the time Wait returns — unless `status` is
/// not kOk, in which case the table is exactly as submitted (cancelled
/// or expired requests commit nothing) and the vectors are empty.
struct RequestResult {
  RequestStatus status = RequestStatus::kOk;
  std::vector<ColumnRunResult> per_column;
  std::vector<GoldenRecord> golden_records;
};

struct ServiceStats {
  OracleBrokerStats oracle;
  SearchCacheStats search_cache;
  /// Retry decorator counters; all zero unless enable_retry.
  RetryingOracleStats retry;
  size_t requests_admitted = 0;
  size_t requests_completed = 0;
  size_t columns_dispatched = 0;
  /// High-water mark of concurrently admitted (incomplete) requests.
  size_t max_concurrent_requests = 0;
  /// Requests finalized with status kCancelled / kDeadlineExceeded.
  size_t requests_cancelled = 0;
  size_t requests_deadline_exceeded = 0;
  /// Submits rejected with kShuttingDown after drain began.
  size_t requests_rejected = 0;
  /// Durability counters; all zero unless persist_dir is set.
  PersistStats persist;
};

class ConsolidationService {
 public:
  /// `backend` answers every question of every request through the shared
  /// broker; it must outlive the service and satisfy the
  /// order-independence contract (consolidate/oracle.h) — the service
  /// serializes calls into it, so it need not be thread-safe.
  ConsolidationService(VerificationOracle* backend, ServiceOptions options);

  /// Shutdown(true): resumes a paused service, blocks until every
  /// admitted request completed, writes the final snapshot.
  ~ConsolidationService();

  ConsolidationService(const ConsolidationService&) = delete;
  ConsolidationService& operator=(const ConsolidationService&) = delete;

  /// Admits `table` and returns its request handle. The table is
  /// standardized in place; it must stay alive and untouched until Wait
  /// returns (or the service is destroyed). Blocks while the admission
  /// queue is full.
  uint64_t Submit(Table* table, RequestOptions request = {});

  /// Blocks until the request completed and returns its result (each
  /// handle can be waited once). Rethrows the first exception the
  /// request's column jobs surfaced (e.g. a backend failure) — except
  /// cancellation and deadline trips, which return normally with the
  /// typed RequestResult::status instead of throwing. A handle that is
  /// never waited keeps its (post-finalize, working-copies-freed) result
  /// until the service is destroyed.
  RequestResult Wait(uint64_t handle);

  /// Cancels an admitted request: trips its cancel state so in-flight
  /// column jobs unwind at the next cooperative checkpoint and
  /// undispatched columns are skipped, then the request finalizes with
  /// status kCancelled in bounded time. Nothing is committed to its
  /// table; other requests and the shared caches are unaffected. Safe
  /// from any thread, including on_event callbacks; cancelling an
  /// already-completed or unknown handle is a no-op.
  void Cancel(uint64_t handle);

  /// Starts dispatch on a service constructed with start_paused.
  void Resume();

  /// Begins shutdown: admission stops immediately — a Submit that arrives
  /// (or was blocked on a full queue) after this returns a pre-completed
  /// handle whose Wait yields status kShuttingDown — while every already-
  /// admitted request keeps running under its existing deadline and its
  /// Wait completes normally. With `drain` true (the default) the call
  /// blocks until all in-flight requests finalized, then writes the final
  /// snapshot (persist_dir) and syncs the WAL; with false it only flips
  /// admission off and returns (the destructor still drains). Idempotent
  /// and safe from any thread, including a signal-watcher.
  void Shutdown(bool drain = true);

  ServiceStats stats() const;

  /// The shared broker's deduplicated approved-transformation log,
  /// accumulated across every request served so far (replay.h).
  std::vector<ApprovedTransformation> ApprovedLog() const;

  /// The service's unified metrics registry (obs/metrics.h): the single
  /// source the text/JSON scrapes read. Lifecycle counters and latency
  /// histograms are registry-native; the broker / search-cache / retry
  /// stats structs surface through snapshot-time collectors. Metrics are
  /// write-only from the serving layers — nothing in scheduling or
  /// caching ever reads them back (zero perturbation).
  MetricsRegistry& metrics() { return metrics_; }

  /// Resolved number of concurrently running column jobs.
  int workers() const { return workers_; }

  /// The CPU profiler (null unless ServiceOptions::enable_profiler).
  /// Read-only consumers: the CLI's --profile-out dump and tests.
  ProfileAccumulator* profiler() const { return profiler_.get(); }

  /// The always-on flight recorder: every request, traced or not, streams
  /// its closed spans into a fixed-size ring (FlightRecorder's default 256
  /// spans), so a stalled, deadline-exceeded or errored request leaves
  /// post-hoc trace evidence with no pre-arming. Per-span cost is one
  /// mutex acquire and one slot copy (priced by the obs_overhead gate).
  FlightRecorder* flight_recorder() const { return recorder_.get(); }

  /// Stall watchdog hook: finds the admitted requests active longer than
  /// stall_threshold_ms that have not dumped yet (latched per request)
  /// and fires one flight-recorder dump (reason "stall") covering them.
  /// The CLI's shutdown-watcher thread polls this; tests call it
  /// directly. Returns the number of newly stalled requests; 0, and no
  /// dump, when stall detection is off (see stall_threshold_ms).
  size_t CheckStalls();

 private:
  struct Request {
    uint64_t id = 0;
    std::string label;
    Table* table = nullptr;
    FrameworkOptions framework;
    std::function<void(const ServeEvent&)> on_event;
    std::vector<Column> columns;
    std::vector<ColumnRunResult> results;
    size_t dispatched = 0;  // columns handed to workers (== next column)
    size_t completed = 0;   // columns finished
    /// Fairness: grant_seq_ when this request last got a slot, or when it
    /// was admitted if it has had none.
    uint64_t last_grant_seq = 0;
    bool done = false;
    std::exception_ptr error;  // first failing column's exception
    /// Cooperative cancellation state shared with every layer below
    /// (framework -> grouping -> broker) via CancelToken views.
    CancelState cancel;
    RequestStatus status = RequestStatus::kOk;  // set at finalize
    RequestResult result;
    /// Submit entry time: start of the root trace span and of the
    /// admission-wait / request-duration histogram intervals.
    SteadyClock::time_point submit_time;
    /// Per-request trace state, made at Submit. The context outlives
    /// every span opened under it: jobs hold the Request* until their
    /// column completes, and completion precedes finalize.
    std::unique_ptr<TraceContext> trace;
    /// Fan-out the context emits into: the (sampled) user sink, the
    /// profiler and the flight recorder. Owned here so it lives as long
    /// as the context pointing at it.
    std::unique_ptr<TeeTraceSink> tee;
    uint64_t root_span = 0;  // span id every column span nests under
    /// Next event sequence number; advanced under the event lock.
    uint64_t next_event_seq = 0;
    /// Stall dumps are latched: one per request, however long it stalls.
    bool stall_dumped = false;
  };

  /// Requires mutex_. Submits worker loops until every slot is busy or no
  /// job is dispatchable.
  void Pump();
  /// Worker loop: picks and runs column jobs until none remain.
  void RunJobs();
  /// Requires mutex_. Fairness policy (see file comment); false when no
  /// active request has an undispatched column.
  bool PickJob(Request** request, size_t* column);
  /// Runs one column job on `grouping_threads` (no lock held); failures
  /// land in request->error.
  void ExecuteColumn(Request* request, size_t column, int grouping_threads);
  /// Commits columns, runs truth discovery and marks the request done.
  void FinalizeRequest(Request* request);
  /// Serialized event delivery; stamps the event's per-request sequence
  /// number and service-relative timestamp under the event lock.
  void Emit(Request& request, ServeEvent event);
  /// Snapshot + WAL reset when the WAL outgrew its compaction threshold.
  /// Called at the tail of FinalizeRequest with NO lock held: it takes
  /// the broker mutex (ExportDurableState), which the durability
  /// listener path holds while appending — compacting from inside that
  /// path would self-deadlock.
  void MaybeCompact();
  /// Constructor helper: registers every instrument and the snapshot
  /// collectors on metrics_.
  void RegisterMetrics();
  /// Builds the dump-context JSON (per-request progress, broker pending,
  /// retry/breaker and persist state), renders the recorder ring and
  /// hands the dump to flight_dump_sink. Takes mutex_ internally — the
  /// caller must NOT hold it. No-op when the recorder is off.
  void FireFlightDump(const char* reason);

  friend class ServeEventOracle;

  VerificationOracle* backend_;
  ServiceOptions options_;
  int budget_ = 1;   // resolved thread budget
  int workers_ = 1;  // resolved concurrent column jobs
  /// Diagnosis layer (ISSUE 10), constructed in the ctor body before any
  /// request or the persist layer can emit. Declared before persist_
  /// (further down) so the process-level context outlives the
  /// DurableState that borrows it.
  std::unique_ptr<ProfileAccumulator> profiler_;
  std::unique_ptr<FlightRecorder> recorder_;
  /// Process-level span fan-out (profiler + recorder only, never a
  /// user's --trace-out sink) and the context the persist layer opens
  /// its wal_append / fsync / snapshot_write / compaction spans under.
  std::unique_ptr<TeeTraceSink> service_tee_;
  std::unique_ptr<TraceContext> service_trace_;
  /// Grouping threads per column job: every job gets budget / workers,
  /// and the budget % workers remainder circulates as boost tokens — a
  /// dispatching job takes one when available (mutex_-guarded
  /// boost_tokens_) and returns it on completion, so concurrently
  /// running jobs never exceed the budget and none of it idles.
  int per_job_threads_ = 1;
  /// Declared before broker_ so the broker can front it: with
  /// enable_retry the call chain is broker -> retrying -> backend.
  std::unique_ptr<RetryingOracle> retrying_;
  OracleBroker broker_;
  SearchResultCache search_cache_;
  /// Durable warm state (null without persist_dir). Declared after
  /// broker_ so it is destroyed first — Shutdown detaches it as the
  /// broker's listener before that happens.
  std::unique_ptr<DurableState> persist_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;       // request completions
  std::condition_variable admission_cv_;  // queue-space waiters
  std::condition_variable idle_cv_;       // destructor drain
  std::unordered_map<uint64_t, std::unique_ptr<Request>> requests_;
  std::vector<Request*> active_;  // admitted, not finalized
  uint64_t next_id_ = 1;          // ids follow admission order
  uint64_t grant_seq_ = 0;        // total grants; the fairness clock
  /// Requests past the admission check but not yet in active_ (their
  /// kAdmitted event is being emitted outside the lock); counted against
  /// max_pending_requests so concurrent Submits cannot overshoot it.
  size_t admitting_ = 0;
  int running_jobs_ = 0;
  int boost_tokens_ = 0;  // see per_job_threads_
  bool paused_ = false;
  /// Set once by Shutdown; Submit rejects with kShuttingDown while set.
  bool draining_ = false;
  /// The final shutdown snapshot happens exactly once.
  bool final_snapshot_done_ = false;
  /// High-water mark of concurrent requests (mutex_-guarded; exposed as
  /// a gauge by the registry collector).
  size_t max_concurrent_requests_ = 0;

  /// The unified registry and its registry-native instruments: the
  /// lifecycle counters below ARE the service's stats storage (stats()
  /// reads them), so the scrape, ServiceStats and the CLI all
  /// read one source of truth. Handles are registered in the
  /// constructor and stay valid for the service lifetime; increments
  /// are relaxed atomic adds (no lock, no feedback into scheduling).
  MetricsRegistry metrics_;
  /// Service-relative time origin: ServeEvent::ts_us and every trace
  /// span measure from here (common/clock.h steady clock).
  SteadyClock::time_point epoch_ = SteadyNow();
  Counter* requests_admitted_ = nullptr;
  Counter* requests_completed_ = nullptr;
  Counter* columns_dispatched_ = nullptr;
  Counter* requests_cancelled_ = nullptr;
  Counter* requests_deadline_exceeded_ = nullptr;
  Counter* requests_rejected_ = nullptr;
  /// Grouping work counters, folded in once per completed column job
  /// from its ColumnRunResult (the engines stay registry-free).
  Counter* grouping_searches_ = nullptr;
  Counter* grouping_expansions_ = nullptr;
  Counter* grouping_joins_ = nullptr;
  Counter* grouping_cache_hits_ = nullptr;
  Counter* grouping_warm_hits_ = nullptr;
  Counter* grouping_speculative_searches_ = nullptr;
  Histogram* admission_wait_us_ = nullptr;
  Histogram* request_duration_us_ = nullptr;
  Histogram* column_duration_us_ = nullptr;
  /// WAL fsync latency (persist satellite); handed to DurableState.
  Histogram* persist_fsync_latency_us_ = nullptr;
  Counter* flight_dumps_ = nullptr;
  Counter* trace_sampled_ = nullptr;
  Counter* trace_unsampled_ = nullptr;

  std::mutex event_mutex_;     // serializes on_event callbacks
  std::mutex progress_mutex_;  // serializes framework progress callbacks

  /// Declared last: destroyed first, which joins the workers while every
  /// member they touch is still alive. Sized workers_ + 1 because a
  /// ThreadPool spawns num_threads - 1 real threads (the missing lane is
  /// the ParallelFor caller, which an asynchronous service never is).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ustl

#endif  // USTL_SERVE_SERVICE_H_
