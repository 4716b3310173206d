// Cooperative cancellation and deadlines for the serving stack. A
// CancelState is owned by whoever controls a request's lifetime (the
// ConsolidationService owns one per admitted request); a CancelToken is a
// cheap nullable view threaded down through the pipeline, framework and
// grouping layers, which poll it at their loop heads. Cancellation is
// *cooperative*: nothing is interrupted mid-operation — work unwinds at
// the next checkpoint via a typed CancelledError, so shared caches only
// ever observe completed, content-pure entries and other in-flight
// requests never notice.
//
// Determinism: cancellation affects only *whether* a request finishes,
// never the bytes a finishing request produces. A deadline trips based on
// wall-clock time, so which checkpoint observes it is timing-dependent —
// but every checkpoint sits before a side effect is committed, and a
// request that trips anywhere unwinds without output.
#ifndef USTL_COMMON_CANCEL_H_
#define USTL_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ustl {

/// Terminal disposition of a served request.
enum class RequestStatus : uint8_t {
  kOk = 0,
  /// Cancel() was called before the request finished.
  kCancelled,
  /// The request's deadline passed before it finished.
  kDeadlineExceeded,
  /// The backend (oracle) failed the request; Wait() rethrows the cause.
  kError,
  /// The service had begun draining (Shutdown) when Submit arrived; the
  /// request was never admitted. In-flight requests are unaffected.
  kShuttingDown,
};

inline const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case RequestStatus::kError:
      return "error";
    case RequestStatus::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

/// Thrown at a cancellation checkpoint to unwind a cancelled or expired
/// request. The serving layer catches it and turns it into a typed
/// RequestResult status; it never escapes to other requests.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(RequestStatus status)
      : std::runtime_error(std::string("request ") +
                           RequestStatusName(status)),
        status_(status) {}
  RequestStatus status() const { return status_; }

 private:
  RequestStatus status_;
};

/// Sticky cancellation flag plus optional deadline. Thread-safe: any
/// thread may Cancel(); any number of worker threads may Poll(). Once
/// tripped, the status never changes back (first cause wins), so every
/// checkpoint of a request reports the same status.
class CancelState {
 public:
  CancelState() = default;

  /// Arms a deadline `ms` milliseconds from now. 0 = no deadline. A
  /// deadline past the steady clock's range can never trip, so it arms
  /// nothing (now + ms would overflow the clock's nanosecond count).
  void SetDeadlineMs(int64_t ms) {
    if (ms <= 0) return;
    const Clock::time_point now = Clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    if (ms >= headroom.count()) return;
    deadline_ = now + std::chrono::milliseconds(ms);
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Trips the flag with kCancelled (or a caller-chosen status). The
  /// first trip wins; later calls are no-ops.
  void Cancel(RequestStatus status = RequestStatus::kCancelled) {
    uint8_t expected = static_cast<uint8_t>(RequestStatus::kOk);
    status_.compare_exchange_strong(expected, static_cast<uint8_t>(status),
                                    std::memory_order_acq_rel);
  }

  /// Current status; checks the deadline (and latches kDeadlineExceeded)
  /// on the way. kOk = keep working.
  RequestStatus Poll() {
    RequestStatus status =
        static_cast<RequestStatus>(status_.load(std::memory_order_acquire));
    if (status != RequestStatus::kOk) return status;
    if (has_deadline_.load(std::memory_order_acquire) &&
        Clock::now() >= deadline_) {
      Cancel(RequestStatus::kDeadlineExceeded);
      return static_cast<RequestStatus>(
          status_.load(std::memory_order_acquire));
    }
    return RequestStatus::kOk;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::atomic<uint8_t> status_{static_cast<uint8_t>(RequestStatus::kOk)};
  std::atomic<bool> has_deadline_{false};
  /// Written once (before workers see the state) by SetDeadlineMs.
  Clock::time_point deadline_{};
};

/// Nullable view of a CancelState. Default-constructed tokens are inert
/// (Poll() always kOk, Check() never throws), so every layer can take one
/// unconditionally and batch entry points simply pass none.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(CancelState* state) : state_(state) {}

  bool cancellable() const { return state_ != nullptr; }

  RequestStatus Poll() const {
    return state_ == nullptr ? RequestStatus::kOk : state_->Poll();
  }

  /// Checkpoint: throws CancelledError when tripped. Call at loop heads
  /// *before* committing the iteration's side effects.
  void Check() const {
    RequestStatus status = Poll();
    if (status != RequestStatus::kOk) throw CancelledError(status);
  }

 private:
  CancelState* state_ = nullptr;
};

}  // namespace ustl

#endif  // USTL_COMMON_CANCEL_H_
