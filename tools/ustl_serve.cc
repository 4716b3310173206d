// Multi-table consolidation server driver (serve/service.h as a CLI).
//
//   ustl-serve --manifest workload.txt [--threads N] [--repeat R]
//              [--oracle-cache on|off] [--search-cache on|off]
//              [--max-cache-entries N] [--budget N] [--events]
//
// The manifest describes a workload: one table per line, admitted in file
// order and standardized concurrently by one long-lived
// ConsolidationService (shared thread pool, shared verdict cache, shared
// cross-engine search cache). Lines are whitespace-separated key=value
// fields; '#' starts a comment:
//
//   # id defaults to the input path, budget to --budget,
//   # cluster-col to "cluster".
//   id=addresses input=a.csv output=a.out.csv golden=a.golden.csv budget=40
//   id=journals  input=b.csv output=b.out.csv
//
// Every group is auto-approved (the ApproveAllOracle — interleaved
// interactive prompts from concurrent tables would be meaningless), so
// per-table output is byte-identical to `ustl-consolidate --approve all`
// on the same input for ANY --threads value, admission order and cache
// state: the determinism contract the service inherits from the
// pipeline.
//
// --repeat R replays the whole workload R times through the SAME service
// (fresh table copies each round; round r >= 2 outputs get an ".rR"
// suffix). Later rounds run against warm verdict/search caches — the
// summary lines show the oracle calls and pivot searches the warmth
// saved. --events streams one JSON line per service event; events of
// concurrent tables interleave in scheduling order (per-table order is
// deterministic).
//
// Observability (obs/): --metrics-out FILE scrapes the service's metrics
// registry into FILE — Prometheus text exposition, or a JSON snapshot
// when FILE ends in ".json" — once at exit and, with
// --metrics-interval-ms N, periodically while serving (each scrape
// rewrites the file atomically enough for a tailing reader: full
// snapshot, single write). --trace-out FILE appends one JSON line per
// trace span for every request (span schema in obs/trace.h). Both are
// write-only taps: output CSVs stay byte-identical with them on or off.
// Durability (persist/): --persist-dir DIR makes the service's warm
// state (verdict cache + approved log) crash-safe — WAL-logged as it
// grows, snapshotted at shutdown, recovered on the next start, so a
// restarted server skips the oracle calls it already paid for while
// producing byte-identical outputs. --fsync picks the WAL durability
// policy. SIGTERM/SIGINT trigger a graceful drain: in-flight tables
// finish and are written, new submits are rejected with a typed
// shutting_down status, the final snapshot and metrics scrape land
// atomically, and the process exits 0. --crash-point kind:N arms a
// kill-test failpoint (see persist/crash_point.h) that SIGKILLs the
// process at an exact WAL/snapshot write boundary — the crash-recovery
// CI leg uses it to prove recovery.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "consolidate/oracle.h"
#include "io/csv.h"
#include "obs/trace.h"
#include "persist/crash_point.h"
#include "persist/snapshot.h"
#include "pipeline/fault_oracle.h"
#include "serve/service.h"

namespace {

using namespace ustl;

struct ManifestEntry {
  std::string id;
  std::string input;
  std::string output;
  std::string golden;
  std::string cluster_col = "cluster";
  size_t budget = 0;  // 0 = the --budget default
};

struct Args {
  std::string manifest;
  int threads = 1;
  size_t budget = 100;
  size_t repeat = 1;
  size_t max_cache_entries = 0;
  std::string oracle_cache = "on";
  std::string search_cache = "on";
  bool events = false;
  int64_t deadline_ms = 0;    // per-request deadline; 0 = none
  std::string fault_plan;     // FaultPlan spec; empty = no injection
  int retry_attempts = 4;     // retry budget when a fault plan is active
  std::string metrics_out;    // metrics snapshot file; empty = no scrape
  std::string trace_out;      // JSON-lines span file; empty = untraced
  int64_t metrics_interval_ms = 0;  // periodic scrape; 0 = exit-only
  std::string persist_dir;    // durable warm state dir; empty = volatile
  std::string fsync = "batch";      // WAL policy: none|batch|always
  std::string crash_point;    // kill-test failpoint spec; empty = off
  std::string profile_out;    // CPU profile JSON (+ .folded); empty = off
  uint64_t trace_sample = 0;  // trace 1-in-N by content hash; 0/1 = all
  std::string flight_dump;    // flight-recorder dump file; empty = stderr-less
  int64_t stall_threshold_ms = 0;  // stall watchdog threshold; 0 = off
};

// Set by the SIGTERM/SIGINT handler (an atomic store is async-signal-
// safe); polled by the shutdown watcher and the round loop.
std::atomic<bool> g_shutdown{false};

extern "C" void HandleShutdownSignal(int) { g_shutdown.store(true); }

// Polls g_shutdown every ~25ms on a background thread and, once set,
// initiates the service drain (Shutdown blocks until in-flight requests
// finalized and the final snapshot landed). RAII like PeriodicScraper;
// destroyed before the service it watches.
class ShutdownWatcher {
 public:
  explicit ShutdownWatcher(ConsolidationService* service) {
    thread_ = std::thread([this, service] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(25),
                           [this] { return done_; })) {
        lock.unlock();
        // Stall watchdog rides the same 25ms tick: a no-op unless
        // --stall-threshold-ms armed it, one latched dump per request.
        service->CheckStalls();
        lock.lock();
        if (g_shutdown.load(std::memory_order_relaxed)) {
          lock.unlock();
          service->Shutdown(/*drain=*/true);
          return;
        }
      }
    });
  }

  ~ShutdownWatcher() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: ustl-serve --manifest FILE\n"
      "                  [--threads N (default: 1; 0 = all cores)]\n"
      "                  [--budget N (default: 100)]\n"
      "                  [--repeat R (default: 1)]\n"
      "                  [--oracle-cache on|off (default: on)]\n"
      "                  [--search-cache on|off (default: on)]\n"
      "                  [--max-cache-entries N (default: 0 = unbounded)]\n"
      "                  [--events]\n"
      "                  [--deadline-ms N (default: 0 = no deadline)]\n"
      "                  [--fault-plan SPEC (e.g. rate=0.5,fails=2,seed=7;\n"
      "                   default: none; wraps the oracle in seeded fault\n"
      "                   injection and fronts it with bounded retries)]\n"
      "                  [--retry-attempts N (default: 4; retry budget\n"
      "                   used when --fault-plan is active)]\n"
      "                  [--metrics-out FILE (scrape the metrics registry\n"
      "                   into FILE at exit: Prometheus text, or a JSON\n"
      "                   snapshot when FILE ends in .json)]\n"
      "                  [--metrics-interval-ms N (default: 0 = exit-only;\n"
      "                   with --metrics-out, also rescrape every N ms)]\n"
      "                  [--trace-out FILE (append one JSON line per trace\n"
      "                   span; observability only — output CSVs are\n"
      "                   byte-identical traced or not)]\n"
      "                  [--persist-dir DIR (durable warm state: verdict\n"
      "                   cache + approved log WAL-logged and snapshotted\n"
      "                   under DIR, recovered on the next start; outputs\n"
      "                   stay byte-identical — recovery only skips oracle\n"
      "                   calls)]\n"
      "                  [--fsync none|batch|always (default: batch; WAL\n"
      "                   durability policy for --persist-dir)]\n"
      "                  [--crash-point KIND:N (kill-test failpoint:\n"
      "                   SIGKILL the process at the N-th wal_append /\n"
      "                   wal_mid_record / snapshot_temp / snapshot_rename;\n"
      "                   testing only)]\n"
      "                  [--profile-out FILE (enable the CPU-attributed\n"
      "                   profiler; at exit write the per-span-path\n"
      "                   inclusive/exclusive wall+CPU table as JSON to\n"
      "                   FILE and collapsed-stack text — flamegraph.pl /\n"
      "                   speedscope input — to FILE.folded)]\n"
      "                  [--trace-sample N (with --trace-out: trace only\n"
      "                   requests whose table content hash is 0 mod N —\n"
      "                   a pure function of content, so the sampled set\n"
      "                   is identical across threads and runs; 0/1 =\n"
      "                   trace everything)]\n"
      "                  [--flight-dump FILE (append flight-recorder dumps\n"
      "                   — recent-span ring + per-request progress, one\n"
      "                   JSON object per line — on deadline-exceeded /\n"
      "                   errored requests, stalls and drain timeouts)]\n"
      "                  [--stall-threshold-ms N (default: 0 = off; dump\n"
      "                   the flight recorder when a request has been in\n"
      "                   flight longer than N ms, once per request)]\n"
      "\n"
      "SIGTERM/SIGINT drain gracefully: in-flight tables finish and are\n"
      "written, new submits are rejected with status shutting_down, the\n"
      "final snapshot and metrics scrape land atomically, exit code 0.\n"
      "\n"
      "Runs a manifest of tables concurrently through one long-lived\n"
      "consolidation service; per-table output is byte-identical to a\n"
      "serial `ustl-consolidate --approve all` run for any thread count,\n"
      "admission order and cache state. Manifest lines are key=value\n"
      "fields: input= output= [id=] [golden=] [budget=] [cluster-col=].\n"
      "--repeat replays the workload through the same (warm) service;\n"
      "round r >= 2 outputs get an .rR suffix.\n");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

// Minimal JSON string escaping for event/summary lines (programs and
// labels may contain quotes and backslashes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const char* EventKindName(ServeEvent::Kind kind) {
  switch (kind) {
    case ServeEvent::Kind::kAdmitted:
      return "admitted";
    case ServeEvent::Kind::kVerdict:
      return "verdict";
    case ServeEvent::Kind::kColumnDone:
      return "column_done";
    case ServeEvent::Kind::kRequestDone:
      return "request_done";
    case ServeEvent::Kind::kRetried:
      return "retried";
    case ServeEvent::Kind::kCancelled:
      return "cancelled";
    case ServeEvent::Kind::kBreakerOpen:
      return "breaker_open";
  }
  return "unknown";
}

void PrintEvent(const ServeEvent& event) {
  // The service serializes on_event invocations, so printf lines never
  // interleave mid-line. seq is the 1-based per-request event sequence;
  // ts_us is microseconds since service construction — both scheduling-
  // dependent, so determinism comparisons must ignore them.
  std::printf("{\"event\": \"%s\", \"request\": %llu, \"seq\": %llu, "
              "\"ts_us\": %lld, \"label\": \"%s\"",
              EventKindName(event.kind),
              static_cast<unsigned long long>(event.request),
              static_cast<unsigned long long>(event.seq),
              static_cast<long long>(event.ts_us),
              JsonEscape(event.label).c_str());
  if (event.kind == ServeEvent::Kind::kVerdict) {
    std::printf(", \"column\": \"%s\", \"presented\": %zu, \"size\": %zu, "
                "\"approved\": %s, \"direction\": \"%s\", \"program\": "
                "\"%s\"",
                JsonEscape(event.column).c_str(), event.presented,
                event.group_size, event.approved ? "true" : "false",
                event.direction == ReplaceDirection::kLhsToRhs ? "lhs->rhs"
                                                               : "rhs->lhs",
                JsonEscape(event.program).c_str());
  } else if (event.kind == ServeEvent::Kind::kColumnDone ||
             event.kind == ServeEvent::Kind::kRequestDone) {
    if (event.kind == ServeEvent::Kind::kColumnDone) {
      std::printf(", \"column\": \"%s\"", JsonEscape(event.column).c_str());
    }
    std::printf(", \"presented\": %zu, \"approved\": %zu, \"edits\": %zu",
                event.groups_presented, event.groups_approved, event.edits);
    if (event.kind == ServeEvent::Kind::kRequestDone) {
      std::printf(", \"status\": \"%s\"", RequestStatusName(event.status));
    }
  } else if (event.kind == ServeEvent::Kind::kRetried) {
    std::printf(", \"attempt\": %d", event.attempt);
  } else if (event.kind == ServeEvent::Kind::kCancelled) {
    std::printf(", \"status\": \"%s\"", RequestStatusName(event.status));
  } else if (event.kind == ServeEvent::Kind::kBreakerOpen) {
    std::printf(", \"open\": %s",
                event.status == RequestStatus::kOk ? "false" : "true");
  }
  std::printf("}\n");
  std::fflush(stdout);
}

// Runs `scrape` every `interval_ms` on a background thread until
// destroyed (RAII, so early error returns in main never leave the
// thread running). The scrape callback only READS the metrics registry
// — it can race harmlessly with the final exit-time scrape but never
// perturbs serving.
class PeriodicScraper {
 public:
  PeriodicScraper(std::function<void()> scrape, int64_t interval_ms)
      : scrape_(std::move(scrape)) {
    thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return done_; })) {
        lock.unlock();
        scrape_();
        lock.lock();
      }
    });
  }

  ~PeriodicScraper() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::function<void()> scrape_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

Result<std::vector<ManifestEntry>> ParseManifest(const std::string& content) {
  std::vector<ManifestEntry> entries;
  size_t line_start = 0;
  size_t line_number = 0;
  while (line_start <= content.size()) {
    size_t line_end = content.find('\n', line_start);
    if (line_end == std::string::npos) line_end = content.size();
    std::string line = content.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);

    ManifestEntry entry;
    bool any_field = false;
    size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() && std::isspace(
                 static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      size_t end = pos;
      while (end < line.size() && !std::isspace(
                 static_cast<unsigned char>(line[end]))) {
        ++end;
      }
      if (end == pos) break;
      const std::string token = line.substr(pos, end - pos);
      pos = end;
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("manifest line " +
                                       std::to_string(line_number) +
                                       ": expected key=value, got '" +
                                       token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      any_field = true;
      if (key == "id") {
        entry.id = value;
      } else if (key == "input") {
        entry.input = value;
      } else if (key == "output") {
        entry.output = value;
      } else if (key == "golden") {
        entry.golden = value;
      } else if (key == "cluster-col") {
        entry.cluster_col = value;
      } else if (key == "budget") {
        entry.budget = std::strtoull(value.c_str(), nullptr, 10);
      } else {
        return Status::InvalidArgument("manifest line " +
                                       std::to_string(line_number) +
                                       ": unknown key '" + key + "'");
      }
    }
    if (!any_field) continue;  // blank / comment-only line
    if (entry.input.empty() || entry.output.empty()) {
      return Status::InvalidArgument("manifest line " +
                                     std::to_string(line_number) +
                                     ": input= and output= are required");
    }
    if (entry.id.empty()) entry.id = entry.input;
    entries.push_back(std::move(entry));
  }
  return entries;
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
    if (std::strcmp(argv[i], "--manifest") == 0) {
      args.manifest = next("--manifest");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      args.budget = std::strtoull(next("--budget"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      args.repeat = std::strtoull(next("--repeat"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-cache-entries") == 0) {
      args.max_cache_entries =
          std::strtoull(next("--max-cache-entries"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--oracle-cache") == 0) {
      args.oracle_cache = next("--oracle-cache");
    } else if (std::strcmp(argv[i], "--search-cache") == 0) {
      args.search_cache = next("--search-cache");
    } else if (std::strcmp(argv[i], "--events") == 0) {
      args.events = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      args.deadline_ms = std::strtoll(next("--deadline-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--fault-plan") == 0) {
      args.fault_plan = next("--fault-plan");
    } else if (std::strcmp(argv[i], "--retry-attempts") == 0) {
      args.retry_attempts = std::atoi(next("--retry-attempts"));
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      args.metrics_out = next("--metrics-out");
    } else if (std::strcmp(argv[i], "--metrics-interval-ms") == 0) {
      args.metrics_interval_ms =
          std::strtoll(next("--metrics-interval-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      args.trace_out = next("--trace-out");
    } else if (std::strcmp(argv[i], "--persist-dir") == 0) {
      args.persist_dir = next("--persist-dir");
    } else if (std::strcmp(argv[i], "--fsync") == 0) {
      args.fsync = next("--fsync");
    } else if (std::strcmp(argv[i], "--crash-point") == 0) {
      args.crash_point = next("--crash-point");
    } else if (std::strcmp(argv[i], "--profile-out") == 0) {
      args.profile_out = next("--profile-out");
    } else if (std::strcmp(argv[i], "--trace-sample") == 0) {
      args.trace_sample = std::strtoull(next("--trace-sample"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--flight-dump") == 0) {
      args.flight_dump = next("--flight-dump");
    } else if (std::strcmp(argv[i], "--stall-threshold-ms") == 0) {
      args.stall_threshold_ms =
          std::strtoll(next("--stall-threshold-ms"), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (args.manifest.empty() || args.repeat == 0 ||
      (args.oracle_cache != "on" && args.oracle_cache != "off") ||
      (args.search_cache != "on" && args.search_cache != "off")) {
    Usage();
    return 2;
  }

  Result<std::string> manifest_content = ReadFileToString(args.manifest);
  if (!manifest_content.ok()) return Fail(manifest_content.status());
  Result<std::vector<ManifestEntry>> entries =
      ParseManifest(*manifest_content);
  if (!entries.ok()) return Fail(entries.status());
  if (entries->empty()) {
    std::fprintf(stderr, "manifest %s lists no tables\n",
                 args.manifest.c_str());
    return 2;
  }

  // Read every input once; each round standardizes a fresh copy.
  std::vector<ClusteredCsv> originals;
  originals.reserve(entries->size());
  for (const ManifestEntry& entry : *entries) {
    Result<std::string> content = ReadFileToString(entry.input);
    if (!content.ok()) return Fail(content.status());
    Result<ClusteredCsv> clustered =
        ReadClusteredCsv(*content, entry.cluster_col);
    if (!clustered.ok()) return Fail(clustered.status());
    originals.push_back(std::move(*clustered));
  }

  ServiceOptions service_options;
  service_options.num_threads = args.threads;
  if (!args.persist_dir.empty()) {
    service_options.persist_dir = args.persist_dir;
    Result<FsyncPolicy> policy = ParseFsyncPolicy(args.fsync);
    if (!policy.ok()) return Fail(policy.status());
    service_options.persist.fsync = *policy;
  }
  if (!args.crash_point.empty()) {
    Status armed = CrashPoint::ArmFromSpec(args.crash_point);
    if (!armed.ok()) return Fail(armed);
  }
  service_options.broker.cache_verdicts = args.oracle_cache == "on";
  service_options.broker.max_cache_entries = args.max_cache_entries;
  service_options.share_search_cache = args.search_cache == "on";
  service_options.framework.budget_per_column = args.budget;
  service_options.framework.grouping.reuse_search_results =
      args.search_cache == "on";
  // Diagnosis layer: the profiler folds every request's spans when
  // --profile-out asks for it; head sampling thins only the user trace
  // stream; the flight recorder (always on) dumps through the sink
  // below. The dump file must outlive the service — the destructor's
  // drain can still fire a drain_timeout dump.
  service_options.enable_profiler = !args.profile_out.empty();
  service_options.trace_sample = args.trace_sample;
  service_options.stall_threshold_ms = args.stall_threshold_ms;
  std::unique_ptr<std::ofstream> flight_stream;
  auto flight_mutex = std::make_shared<std::mutex>();
  if (!args.flight_dump.empty()) {
    flight_stream = std::make_unique<std::ofstream>(args.flight_dump);
    if (!*flight_stream) {
      std::fprintf(stderr, "cannot open --flight-dump %s\n",
                   args.flight_dump.c_str());
      return 1;
    }
    std::ofstream* stream = flight_stream.get();
    service_options.flight_dump_sink = [stream,
                                        flight_mutex](const std::string& dump) {
      // Dumps fire from worker threads and the watchdog concurrently;
      // serialize so each lands as one intact JSON line.
      std::lock_guard<std::mutex> lock(*flight_mutex);
      *stream << dump << "\n";
      stream->flush();
    };
  }
  // Oracle chain: approve-all backend, optionally wrapped in seeded fault
  // injection (--fault-plan), in which case the service fronts it with a
  // retry/breaker decorator so eventually-successful plans still produce
  // byte-identical output (the fault-sweep CI legs byte-compare this).
  ApproveAllOracle approve_all;
  VerificationOracle* oracle = &approve_all;
  std::unique_ptr<FaultInjectingOracle> fault_oracle;
  if (!args.fault_plan.empty()) {
    Result<FaultPlan> plan = FaultPlan::FromSpec(args.fault_plan);
    if (!plan.ok()) return Fail(plan.status());
    fault_oracle = std::make_unique<FaultInjectingOracle>(oracle, *plan);
    oracle = fault_oracle.get();
    service_options.enable_retry = true;
    service_options.retry.max_attempts = args.retry_attempts;
  }
  std::unique_ptr<ConsolidationService> service_ptr;
  try {
    service_ptr =
        std::make_unique<ConsolidationService>(oracle, service_options);
  } catch (const std::exception& e) {
    // Unreadably corrupt persist state: refuse to serve with silently
    // partial warm state (wipe the dir or fix the files to proceed).
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  ConsolidationService& service = *service_ptr;
  std::printf("serving %zu table(s) x %zu round(s) on %d worker(s)\n",
              entries->size(), args.repeat, service.workers());
  if (!args.persist_dir.empty()) {
    const PersistStats persist = service.stats().persist;
    std::printf("{\"persist\": \"%s\", \"fsync\": \"%s\", "
                "\"recovered_records\": %llu, "
                "\"truncated_tail_bytes\": %llu}\n",
                JsonEscape(args.persist_dir).c_str(), args.fsync.c_str(),
                static_cast<unsigned long long>(persist.recovered_records),
                static_cast<unsigned long long>(persist.truncated_tail_bytes));
  }

  // Graceful drain on SIGTERM/SIGINT: the watcher initiates Shutdown
  // (in-flight requests finish; new submits reject) and the round loop
  // breaks at its next boundary.
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  auto watcher = std::make_unique<ShutdownWatcher>(&service);

  // Observability taps. The trace sink appends one JSON line per span as
  // requests finish spans; the metrics scrape snapshots the registry —
  // exit-time always, periodically when --metrics-interval-ms is set.
  std::unique_ptr<std::ofstream> trace_stream;
  std::unique_ptr<JsonLinesTraceSink> trace_sink;
  if (!args.trace_out.empty()) {
    trace_stream = std::make_unique<std::ofstream>(args.trace_out);
    if (!*trace_stream) {
      std::fprintf(stderr, "cannot open --trace-out %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    trace_sink = std::make_unique<JsonLinesTraceSink>(trace_stream.get());
  }
  auto scrape_metrics = [&service, &args] {
    const std::string& path = args.metrics_out;
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    const std::string body =
        json ? service.metrics().WriteJson() : service.metrics().WriteText();
    // Write-temp-rename: a reader (or a crash) never sees a truncated
    // scrape under the published name.
    Status status = WriteFileAtomic(path, body);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics scrape: %s\n",
                   status.ToString().c_str());
    }
  };
  std::unique_ptr<PeriodicScraper> scraper;
  if (!args.metrics_out.empty() && args.metrics_interval_ms > 0) {
    scraper = std::make_unique<PeriodicScraper>(scrape_metrics,
                                                args.metrics_interval_ms);
  }

  ServiceStats previous;  // cumulative stats at the last round boundary
  for (size_t round = 1; round <= args.repeat; ++round) {
    std::vector<ClusteredCsv> tables = originals;  // fresh copies
    std::vector<uint64_t> handles(entries->size());
    Timer timer;
    for (size_t t = 0; t < entries->size(); ++t) {
      RequestOptions request;
      request.label = (*entries)[t].id;
      request.deadline_ms = args.deadline_ms;
      if ((*entries)[t].budget > 0) {
        FrameworkOptions framework = service_options.framework;
        framework.budget_per_column = (*entries)[t].budget;
        request.framework = framework;
      }
      if (args.events) request.on_event = PrintEvent;
      request.trace_sink = trace_sink.get();
      handles[t] = service.Submit(&tables[t].table, std::move(request));
    }

    uint64_t searches = 0;
    uint64_t warm_hits = 0;
    for (size_t t = 0; t < entries->size(); ++t) {
      const ManifestEntry& entry = (*entries)[t];
      RequestResult result = service.Wait(handles[t]);
      if (result.status != RequestStatus::kOk) {
        // Cancelled / past-deadline requests committed nothing; report
        // the typed status instead of writing an untouched table.
        std::printf("{\"table\": \"%s\", \"round\": %zu, \"status\": "
                    "\"%s\"}\n",
                    JsonEscape(entry.id).c_str(), round,
                    RequestStatusName(result.status));
        continue;
      }
      for (const ColumnRunResult& column : result.per_column) {
        searches += column.grouping.searches;
        warm_hits += column.grouping.warm_hits;
      }
      const std::string suffix =
          round == 1 ? "" : ".r" + std::to_string(round);
      Status status = WriteStringToFile(entry.output + suffix,
                                        WriteClusteredCsv(tables[t]));
      if (!status.ok()) return Fail(status);
      if (!entry.golden.empty()) {
        status = WriteStringToFile(
            entry.golden + suffix,
            WriteGoldenCsv(tables[t], result.golden_records));
        if (!status.ok()) return Fail(status);
      }
    }

    const double seconds = timer.ElapsedSeconds();
    const ServiceStats now = service.stats();
    std::printf(
        "{\"round\": %zu, \"tables\": %zu, \"seconds\": %.4f, "
        "\"tables_per_sec\": %.2f, \"questions\": %zu, "
        "\"oracle_calls\": %zu, \"oracle_cache_hits\": %zu, "
        "\"oracle_evictions\": %zu, \"searches\": %llu, "
        "\"search_warm_hits\": %llu, \"warm_started_engines\": %zu, "
        "\"retries\": %zu, \"recovered\": %zu, \"breaker_opens\": %zu, "
        "\"cancelled\": %zu, \"deadline_exceeded\": %zu}\n",
        round, entries->size(), seconds,
        seconds > 0 ? static_cast<double>(entries->size()) / seconds : 0.0,
        now.oracle.questions - previous.oracle.questions,
        now.oracle.backend_calls - previous.oracle.backend_calls,
        now.oracle.cache_hits - previous.oracle.cache_hits,
        now.oracle.evictions - previous.oracle.evictions,
        static_cast<unsigned long long>(searches),
        static_cast<unsigned long long>(warm_hits),
        now.search_cache.warm_starts - previous.search_cache.warm_starts,
        now.retry.retries - previous.retry.retries,
        now.retry.recovered - previous.retry.recovered,
        now.retry.breaker_opens - previous.retry.breaker_opens,
        now.requests_cancelled - previous.requests_cancelled,
        now.requests_deadline_exceeded - previous.requests_deadline_exceeded);
    previous = now;

    if (g_shutdown.load(std::memory_order_relaxed)) {
      std::printf("{\"shutdown\": \"graceful\", \"rounds_completed\": %zu}\n",
                  round);
      break;
    }
  }

  // Join the watcher first (a drain it started completes before the
  // join returns), then make sure the final snapshot has landed —
  // Shutdown is idempotent — so the exit scrape below reports it.
  watcher.reset();
  service.Shutdown(/*drain=*/true);
  scraper.reset();  // stop the periodic thread before the final scrape
  if (!args.metrics_out.empty()) scrape_metrics();
  if (trace_stream) trace_stream->flush();
  if (!args.profile_out.empty() && service.profiler() != nullptr) {
    // The drain above closed every span, so the table is final. JSON for
    // tooling, collapsed-stack text for flamegraph.pl / speedscope.
    Status status =
        WriteFileAtomic(args.profile_out, service.profiler()->WriteJson());
    if (!status.ok()) return Fail(status);
    status = WriteFileAtomic(args.profile_out + ".folded",
                             service.profiler()->WriteFolded());
    if (!status.ok()) return Fail(status);
  }
  return 0;
}
