// Unified metrics registry for the serving stack (ISSUE 8). One registry
// holds every counter, gauge and fixed-bucket latency histogram a process
// exposes, with two properties the serving determinism contract needs:
//
//   * lock-free updates — a counter is one relaxed atomic and a histogram
//     one array of atomic buckets plus an atomic sum and count. The
//     service makes about a dozen updates per single-column request, too
//     few for its workers to contend on these cache lines. Hot paths
//     never take the registry lock and never feed a value back into
//     scheduling or caching decisions (zero perturbation: metrics are
//     write-only from the serving layers);
//   * deterministic exposition — metrics render in registration order,
//     never hash order, so two scrapes of identical state are
//     byte-identical and text diffs between scrapes are stable.
//
// Two writers: WriteText (Prometheus text exposition: # HELP / # TYPE /
// samples, histogram _bucket{le=...}/_sum/_count) and WriteJson (one
// snapshot object, registration-ordered keys). Gauges additionally
// support collectors — callbacks run at snapshot time that copy
// externally-owned counters (the broker's OracleBrokerStats, the search
// cache's stats...) into registered gauges, which is how the scattered
// per-subsystem stats structs surface through one scrape without giving
// every subsystem a registry dependency.
#ifndef USTL_OBS_METRICS_H_
#define USTL_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ustl {

/// Monotonic counter. Increment is a relaxed atomic add.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins signed value (queue depths, cache sizes, breaker
/// state). Set/Add are single atomic ops.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram (typically latency in microseconds). Bucket
/// upper bounds are inclusive and fixed at registration; an implicit
/// +Inf bucket catches the tail. Observe is a bucket scan (the bound
/// lists are short) plus three relaxed adds.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> upper_bounds);

  void Observe(int64_t value);

  /// Scrape-time read: per-bucket (non-cumulative) counts in bound order
  /// with the +Inf bucket last, plus sum and count of observations.
  struct Snapshot {
    std::vector<uint64_t> bucket_counts;
    int64_t sum = 0;
    uint64_t count = 0;
  };
  Snapshot Aggregate() const;

  const std::vector<int64_t>& upper_bounds() const { return upper_bounds_; }

 private:
  std::vector<int64_t> upper_bounds_;  // ascending; +Inf implicit
  std::vector<std::atomic<uint64_t>> buckets_;  // one per bound, then +Inf
  std::atomic<int64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

/// Default latency bucket bounds in microseconds: 100us .. 100s in decade
/// steps — wide enough for admission waits and whole-request durations on
/// any hardware, few enough that exposition stays readable.
const std::vector<int64_t>& DefaultLatencyBucketsUs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration: returns the existing instrument when the name was
  /// registered before (same kind required — a kind clash aborts), so
  /// independent subsystems may idempotently claim their metrics. Names
  /// should follow Prometheus conventions (snake_case, unit suffix).
  /// Registration takes the registry mutex; updates through the returned
  /// handles never do. Handles stay valid for the registry's lifetime.
  Counter* RegisterCounter(const std::string& name, const std::string& help);
  Gauge* RegisterGauge(const std::string& name, const std::string& help);
  /// Gauge with constant labels (rendered as `name{k="v",...} value` in
  /// the text exposition, a "labels" object in JSON). Labels are fixed at
  /// registration — the registry has no dynamic label sets by design
  /// (deterministic exposition) — which fits info-style metrics such as
  /// ustl_build_info. Idempotency keys on the bare name.
  Gauge* RegisterGauge(const std::string& name, const std::string& help,
                       std::vector<std::pair<std::string, std::string>> labels);
  Histogram* RegisterHistogram(const std::string& name,
                               const std::string& help,
                               std::vector<int64_t> upper_bounds);

  /// Snapshot-time collector: runs (serialized, in registration order)
  /// at the start of every WriteText/WriteJson, before values are read.
  /// Use it to copy externally-owned stats structs into gauges.
  void AddCollector(std::function<void()> collector);

  /// Prometheus text exposition of every metric, registration order.
  std::string WriteText() const;
  /// One JSON object {"metrics": [...]} in registration order.
  std::string WriteJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::string help;
    std::vector<std::pair<std::string, std::string>> labels;
    std::string label_suffix;  // pre-rendered {k="v",...} or empty
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Requires mutex_. Existing entry of this name (kind-checked) or null.
  Entry* Find(const std::string& name, Kind kind);
  void RunCollectors() const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::function<void()>> collectors_;
};

/// Registers the process-level gauges (`ustl_process_rss_bytes`,
/// `ustl_process_cpu_seconds_total`, `ustl_process_open_fds` — read from
/// /proc/self, 0 off Linux) plus a constant `ustl_build_info` gauge whose
/// compiler/build-type labels match the bench environment JSON, and one
/// collector that refreshes the /proc readings at scrape time.
/// Idempotent per registry.
void RegisterProcessMetrics(MetricsRegistry* registry);

/// Toolchain attribution strings, formatted exactly like the bench
/// environment JSON line (bench_util.h) so scrapes and recorded
/// trajectories agree: "gcc 12.2.0" / "clang 15.0.7" / "unknown", and
/// "Release"/"Debug" from NDEBUG.
std::string BuildCompilerString();
const char* BuildTypeString();

}  // namespace ustl

#endif  // USTL_OBS_METRICS_H_
