#include "pipeline/retrying_oracle.h"

#include "obs/trace.h"

namespace ustl {

namespace {

// Retry/breaker attribution on the asking request's trace. Observability
// only: emitted after the decision is already made, so the retry schedule
// and breaker state machine are identical traced or not.
void TraceRetryEvent(const QuestionContext& context, const char* name,
                     std::vector<std::pair<std::string, int64_t>> attrs) {
  if (context.trace == nullptr) return;
  context.trace->Event(context.trace_parent, name, std::string(),
                       std::move(attrs));
}

}  // namespace

Verdict RetryingOracle::VerifyWithContext(
    const std::vector<StringPair>& group_pairs,
    const QuestionContext& context) {
  bool probe = false;  // this call is the open breaker's one real call
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (open_) {
      if (++open_calls_ < options_.breaker_cooldown_calls) {
        ++stats_.short_circuits;
        throw BreakerOpenError();
      }
      probe = true;
    }
  }

  const int max_attempts = probe ? 1 : options_.max_attempts;
  std::exception_ptr last_error;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    context.cancel.Check();
    try {
      Verdict verdict = backend_->VerifyWithContext(group_pairs, context);
      bool closed_now = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (attempt > 1) ++stats_.recovered;
        consecutive_exhausted_ = 0;
        closed_now = open_;
        open_ = false;
      }
      if (closed_now) TraceRetryEvent(context, "breaker_state", {{"open", 0}});
      return verdict;
    } catch (const CancelledError&) {
      throw;  // cancellation is not a backend failure; never retry it
    } catch (...) {
      last_error = std::current_exception();
      if (attempt < max_attempts) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.retries;
        }
        TraceRetryEvent(context, "oracle_retry", {{"attempt", attempt}});
      }
    }
  }

  // Every attempt failed: count it against the breaker, fail the asker.
  bool opened_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.exhausted;
    ++consecutive_exhausted_;
    if (probe) {
      open_calls_ = 0;  // failed probe: another full cooldown
    } else if (options_.breaker_failure_threshold > 0 && !open_ &&
               consecutive_exhausted_ >= options_.breaker_failure_threshold) {
      open_ = true;
      open_calls_ = 0;
      ++stats_.breaker_opens;
      opened_now = true;
    }
  }
  if (opened_now) TraceRetryEvent(context, "breaker_state", {{"open", 1}});
  std::rethrow_exception(last_error);
}

RetryingOracleStats RetryingOracle::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool RetryingOracle::breaker_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_;
}

}  // namespace ustl
