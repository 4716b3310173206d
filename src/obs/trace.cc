#include "obs/trace.h"

#include "common/string_util.h"

namespace ustl {

std::string FormatTraceSpanJson(const TraceSpan& span) {
  std::string out = "{\"request\": ";
  AppendJsonString(&out, span.request_id);
  out += ", \"id\": ";
  out += std::to_string(span.id);
  out += ", \"parent\": ";
  out += std::to_string(span.parent);
  out += ", \"name\": ";
  AppendJsonString(&out, span.name);
  if (!span.detail.empty()) {
    out += ", \"detail\": ";
    AppendJsonString(&out, span.detail);
  }
  out += ", \"start_us\": ";
  out += std::to_string(span.start_us);
  out += ", \"end_us\": ";
  out += std::to_string(span.end_us);
  out += ", \"cpu_us\": ";
  out += std::to_string(span.cpu_us);
  if (!span.attrs.empty()) {
    out += ", \"attrs\": {";
    bool first = true;
    for (const auto& attr : span.attrs) {
      if (!first) out += ", ";
      first = false;
      AppendJsonString(&out, attr.first);
      out += ": ";
      out += std::to_string(attr.second);
    }
    out += "}";
  }
  out += "}";
  return out;
}

void JsonLinesTraceSink::Emit(const TraceSpan& span) {
  const std::string line = FormatTraceSpanJson(span);
  std::lock_guard<std::mutex> lock(mutex_);
  (*out_) << line << '\n';
}

void CountingTraceSink::Emit(const TraceSpan& span) {
  // Format-and-discard: the overhead bench should price the full
  // emission path (clock reads, id allocation, JSON formatting), not
  // just the pointer tests, so the sink does everything but the write.
  const std::string line = FormatTraceSpanJson(span);
  count_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<int64_t>(line.size()),
                   std::memory_order_relaxed);
}

void TraceContext::Event(uint64_t parent, const char* name,
                         const std::string& detail,
                         std::vector<std::pair<std::string, int64_t>> attrs) {
  if (sink_ == nullptr) return;
  TraceSpan span;
  span.request_id = request_id_;
  span.id = NextSpanId();
  span.parent = parent;
  span.name = name;
  span.detail = detail;
  span.start_us = NowMicros();
  span.end_us = span.start_us;
  span.attrs = std::move(attrs);
  sink_->Emit(span);
}

ScopedSpan::ScopedSpan(TraceContext* ctx, uint64_t parent, const char* name,
                       std::string detail) {
  if (ctx == nullptr || ctx->sink() == nullptr) return;
  ctx_ = ctx;
  span_.request_id = ctx->request_id();
  span_.id = ctx->NextSpanId();
  span_.parent = parent;
  span_.name = name;
  span_.detail = std::move(detail);
  span_.start_us = ctx->NowMicros();
  cpu_start_us_ = ThreadCpuMicros();
}

void ScopedSpan::End() {
  if (ctx_ == nullptr) return;
  const int64_t cpu_delta = ThreadCpuMicros() - cpu_start_us_;
  span_.end_us = ctx_->NowMicros();
  // Clamp to [0, wall]: the CPU and wall clocks tick independently, so a
  // tight span can read cpu > wall by a rounding quantum; check_trace.py
  // enforces cpu_us <= wall as a schema invariant.
  const int64_t wall = span_.end_us - span_.start_us;
  span_.cpu_us = cpu_delta < 0 ? 0 : (cpu_delta > wall ? wall : cpu_delta);
  ctx_->sink()->Emit(span_);
  ctx_ = nullptr;
}

}  // namespace ustl
