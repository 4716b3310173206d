// A TraceSink that keeps every span it receives, for tests that assert on
// span structure. Thread-safe: a served request's spans arrive from its
// column jobs' worker threads.
#ifndef USTL_TESTS_VECTOR_TRACE_SINK_H_
#define USTL_TESTS_VECTOR_TRACE_SINK_H_

#include <mutex>
#include <vector>

#include "obs/trace.h"

namespace ustl {

class VectorTraceSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  std::vector<TraceSpan> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

}  // namespace ustl

#endif  // USTL_TESTS_VECTOR_TRACE_SINK_H_
