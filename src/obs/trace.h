// Per-request tracing for the serving stack (ISSUE 8). A request carries
// one TraceContext down through the service, the column pipeline, the
// grouping engines and the oracle broker; each layer opens ScopedSpans
// (admission wait → column standardize → graph build → search waves →
// oracle calls → apply/fuse) that record service-relative monotonic
// timestamps and land in a TraceSink as they close.
//
// Design constraints, in order:
//   * zero perturbation — tracing records what happened and never feeds
//     a decision; per-table output is byte-identical with tracing on or
//     off (the serve tests and check.sh byte-compare both legs);
//   * zero overhead when disabled — a null sink makes every span
//     constructor a pointer test: no clock read, no allocation, no
//     atomic. The `trace` pointer threaded through the stack is simply
//     null in the untraced (default) configuration;
//   * causal order without cross-thread coordination — span ids come
//     from one per-request atomic counter, so a child's id is always
//     greater than its parent's (the parent is open when the child is
//     created). Sinks receive spans at *end* time (RAII order), so
//     consumers must buffer before ordering; tools/check_trace.py
//     validates id ordering, interval containment and request closure.
//
// Spans cross threads: a request's column jobs open spans concurrently on
// different worker threads. Both the span-id counter and the sink must
// therefore be thread-safe; JsonLinesTraceSink serializes writes
// with a mutex (tracing is off on hot paths by default, so this lock is
// never contended in production-shaped runs).
#ifndef USTL_OBS_TRACE_H_
#define USTL_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace ustl {

/// One closed span. `start_us`/`end_us` are microseconds since the
/// context epoch (service start for served requests), so timestamps are
/// comparable across all spans of one process and carry no wall-clock.
/// A point event is a span with start_us == end_us. `parent` is 0 for
/// the request root (span ids start at 1).
struct TraceSpan {
  std::string request_id;
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string detail;  // free-form qualifier: column name, program, ...
  int64_t start_us = 0;
  int64_t end_us = 0;
  /// CPU time the owning thread consumed inside [start_us, end_us]
  /// (CLOCK_THREAD_CPUTIME_ID delta, clamped to [0, wall]). A span with
  /// cpu_us far below its wall interval sat on a queue, a lock or I/O
  /// rather than running hot — the profiling layer splits the two.
  /// Hand-built spans that cross threads (request root, admission_wait)
  /// carry 0: "unknown", never an over-claim.
  int64_t cpu_us = 0;
  std::vector<std::pair<std::string, int64_t>> attrs;
};

/// Receives closed spans. Implementations must be thread-safe: spans
/// arrive concurrently from worker threads.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceSpan& span) = 0;
};

/// Writes each span as one JSON object per line to a caller-owned
/// stream. Line order is emission order (children before parents —
/// RAII); consumers re-order on (request_id, id).
class JsonLinesTraceSink : public TraceSink {
 public:
  explicit JsonLinesTraceSink(std::ostream* out) : out_(out) {}
  void Emit(const TraceSpan& span) override;

 private:
  std::ostream* out_;
  std::mutex mutex_;
};

/// Counts spans and discards them — for overhead measurement (the
/// obs_overhead bench leg) and tests that only assert emission counts.
class CountingTraceSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t formatted_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> bytes_{0};
};

/// Fans each span out to several sinks (user trace stream, profiler,
/// flight recorder). Null entries are skipped, so callers can wire the
/// fixed consumer slots unconditionally. The sink list is immutable
/// after construction — thread-safety reduces to the targets' own.
class TeeTraceSink : public TraceSink {
 public:
  explicit TeeTraceSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void Emit(const TraceSpan& span) override {
    for (TraceSink* sink : sinks_) {
      if (sink != nullptr) sink->Emit(span);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Formats a span as its JSON-lines object (no trailing newline).
/// Shared by the sinks above so there is exactly one schema definition.
std::string FormatTraceSpanJson(const TraceSpan& span);

/// Per-request trace state, owned by the service request and passed by
/// pointer (null ⇒ tracing disabled) through FrameworkOptions,
/// GroupingOptions, IncrementalOptions and QuestionContext.
class TraceContext {
 public:
  TraceContext(TraceSink* sink, std::string request_id,
               SteadyClock::time_point epoch)
      : sink_(sink), request_id_(std::move(request_id)), epoch_(epoch) {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  TraceSink* sink() const { return sink_; }
  const std::string& request_id() const { return request_id_; }
  int64_t NowMicros() const { return MicrosSince(epoch_); }
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Point event (start == end) under `parent`. No-op on a null sink.
  void Event(uint64_t parent, const char* name, const std::string& detail,
             std::vector<std::pair<std::string, int64_t>> attrs = {});

 private:
  TraceSink* sink_;
  std::string request_id_;
  SteadyClock::time_point epoch_;
  std::atomic<uint64_t> next_span_id_{0};
};

/// RAII span. Inert (no clock read, no id allocation) when constructed
/// with a null context or a context with a null sink. Movable so layers
/// can return/stash open spans; not copyable.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  /// Opens a span under `parent` (0 ⇒ request root).
  ScopedSpan(TraceContext* ctx, uint64_t parent, const char* name,
             std::string detail = std::string());
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept { MoveFrom(&other); }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      End();
      MoveFrom(&other);
    }
    return *this;
  }
  ~ScopedSpan() { End(); }

  /// The id children should use as their parent (0 when inert, which
  /// keeps nesting well-defined in the untraced configuration).
  uint64_t id() const { return span_.id; }
  bool active() const { return ctx_ != nullptr; }

  /// Attach a numeric attribute (counts, sizes). No-op when inert —
  /// callers may pass values unconditionally.
  void AddAttr(const char* key, int64_t value) {
    if (ctx_ != nullptr) span_.attrs.emplace_back(key, value);
  }

  /// Close and emit now (idempotent; the destructor calls it too).
  void End();

 private:
  void MoveFrom(ScopedSpan* other) {
    ctx_ = other->ctx_;
    span_ = std::move(other->span_);
    cpu_start_us_ = other->cpu_start_us_;
    other->ctx_ = nullptr;
  }
  TraceContext* ctx_ = nullptr;
  TraceSpan span_;
  // Thread-CPU clock at open; End() stores the clamped delta in
  // span_.cpu_us. Valid only when open and close run on one thread,
  // which RAII guarantees for every span in the stack.
  int64_t cpu_start_us_ = 0;
};

}  // namespace ustl

#endif  // USTL_OBS_TRACE_H_
