// Deterministic data parallelism for the USTL pipeline. A fixed-size
// ThreadPool (no work stealing, no task dependencies) plus a ParallelFor
// helper with chunked scheduling.
//
// Design constraint: every parallel construct here is *scheduling-only*
// parallelism. Which thread runs which index never influences results —
// each index writes its own output slot, and any cross-index merging is
// done by the caller in index order. That is what lets the grouping
// pipeline promise bit-identical output for num_threads ∈ {1, N}.
//
// Nested use: a ParallelFor issued from inside a pool worker runs inline
// on the calling thread (no new tasks are enqueued), so callees can
// themselves call ParallelFor without deadlocking a fixed-size pool.
#ifndef USTL_COMMON_PARALLEL_H_
#define USTL_COMMON_PARALLEL_H_

#include <cstddef>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ustl {

/// Resolves a user-facing thread-count knob: values <= 0 mean "hardware
/// concurrency", positive values are taken as-is.
int ResolveThreadCount(int num_threads);

/// A fixed-size pool of `num_threads - 1` worker threads (the caller of
/// ParallelFor is the remaining thread). num_threads == 1 spawns no
/// workers and makes every ParallelFor a plain serial loop.
///
/// The pool only runs fire-and-forget void() tasks; completion tracking
/// is the job of ParallelFor. Thread-safe.
class ThreadPool {
 public:
  /// `num_threads` is a resolved count (>= 1); pass through
  /// ResolveThreadCount first for user-facing knobs.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The resolved concurrency (workers + calling thread).
  int num_threads() const { return num_threads_; }

  /// Enqueues a task. Must not be called after destruction began.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers. Used to
  /// run nested ParallelFor calls inline.
  bool InWorkerThread() const;

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool shutdown_ = false;
};

/// Runs fn(i) for every i in [0, n), distributing deterministic contiguous
/// chunks over the pool's workers plus the calling thread. Returns after
/// every index completed. Runs serially (plain loop, no synchronization)
/// when `pool` is null, has one thread, n < 2, or the caller is already a
/// pool worker.
///
/// Exceptions thrown by fn are caught per index; the exception of the
/// lowest-indexed failing chunk is rethrown in the caller after all chunks
/// finished, matching what a serial loop would have surfaced first.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace ustl

#endif  // USTL_COMMON_PARALLEL_H_
