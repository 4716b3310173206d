#include "obs/profile.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"

namespace ustl {

void ProfileAccumulator::Emit(const TraceSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span.parent == 0) {
    FoldRootLocked(span);
    return;
  }
  if (buffered_ >= max_buffered_spans_) {
    ++dropped_;
    return;
  }
  buffers_[span.request_id].push_back(BufferedSpan{
      span.id, span.parent, span.start_us, span.end_us, span.cpu_us,
      span.name});
  ++buffered_;
}

void ProfileAccumulator::FoldRootLocked(const TraceSpan& root) {
  // The buffered group holds every already-closed descendant of this
  // root (children close before parents), possibly mixed with spans of
  // *other* roots under the same request id (the process-level context
  // reuses one id for many persist roots). A DFS from the root folds
  // exactly its reachable subtree and removes it from the buffer.
  std::vector<BufferedSpan>* group = nullptr;
  auto group_it = buffers_.find(root.request_id);
  if (group_it != buffers_.end()) group = &group_it->second;

  std::unordered_map<uint64_t, std::vector<size_t>> children;
  if (group != nullptr) {
    for (size_t i = 0; i < group->size(); ++i) {
      children[(*group)[i].parent].push_back(i);
    }
  }

  std::vector<bool> folded_index(group != nullptr ? group->size() : 0, false);

  // Recursive fold returning the span's inclusive (wall, cpu) so the
  // parent can compute its exclusive share. Depth is the span-nesting
  // depth (a handful of stages), never the buffer size.
  struct Totals {
    int64_t wall;
    int64_t cpu;
  };
  std::function<Totals(const BufferedSpan&, const std::string&)> fold =
      [&](const BufferedSpan& span, const std::string& prefix) -> Totals {
    const std::string path =
        prefix.empty() ? span.name : prefix + ";" + span.name;
    const int64_t wall = span.end_us - span.start_us;
    const int64_t cpu = span.cpu_us;
    int64_t child_wall = 0;
    int64_t child_cpu = 0;
    auto kids = children.find(span.id);
    if (kids != children.end() && group != nullptr) {
      for (size_t index : kids->second) {
        folded_index[index] = true;
        const Totals child = fold((*group)[index], path);
        child_wall += child.wall;
        child_cpu += child.cpu;
      }
    }
    Entry& entry = table_[path];
    entry.count += 1;
    entry.wall_us += wall;
    entry.cpu_us += cpu;
    // Self time clamps at zero: concurrent children (several column
    // spans under one request root) can sum past the parent's wall, and
    // children that ran on other threads carry CPU the parent's thread
    // never spent.
    entry.self_wall_us += std::max<int64_t>(0, wall - child_wall);
    entry.self_cpu_us += std::max<int64_t>(0, cpu - child_cpu);
    ++folded_;
    return {wall, cpu};
  };
  fold(BufferedSpan{root.id, root.parent, root.start_us, root.end_us,
                    root.cpu_us, root.name},
       std::string());

  if (group != nullptr) {
    size_t kept = 0;
    for (size_t i = 0; i < group->size(); ++i) {
      if (!folded_index[i]) {
        (*group)[kept++] = std::move((*group)[i]);
      } else {
        --buffered_;
      }
    }
    group->resize(kept);
    if (group->empty()) buffers_.erase(group_it);
  }
}

std::map<std::string, ProfileAccumulator::Entry> ProfileAccumulator::Table()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_;
}

std::map<std::string, ProfileAccumulator::Entry>
ProfileAccumulator::TotalsByName() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Entry> totals;
  for (const auto& row : table_) {
    const std::string& path = row.first;
    const size_t sep = path.rfind(';');
    const std::string name =
        sep == std::string::npos ? path : path.substr(sep + 1);
    Entry& entry = totals[name];
    entry.count += row.second.count;
    entry.wall_us += row.second.wall_us;
    entry.self_wall_us += row.second.self_wall_us;
    entry.cpu_us += row.second.cpu_us;
    entry.self_cpu_us += row.second.self_cpu_us;
  }
  return totals;
}

uint64_t ProfileAccumulator::folded_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return folded_;
}

uint64_t ProfileAccumulator::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string ProfileAccumulator::WriteJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"profile\": [";
  bool first = true;
  for (const auto& row : table_) {
    if (!first) out += ", ";
    first = false;
    const std::string& path = row.first;
    const size_t sep = path.rfind(';');
    out += "{\"path\": ";
    AppendJsonString(&out, path);
    out += ", \"name\": ";
    AppendJsonString(
        &out, sep == std::string::npos ? path : path.substr(sep + 1));
    out += ", \"count\": ";
    out += std::to_string(row.second.count);
    out += ", \"wall_us\": ";
    out += std::to_string(row.second.wall_us);
    out += ", \"self_wall_us\": ";
    out += std::to_string(row.second.self_wall_us);
    out += ", \"cpu_us\": ";
    out += std::to_string(row.second.cpu_us);
    out += ", \"self_cpu_us\": ";
    out += std::to_string(row.second.self_cpu_us);
    out += "}";
  }
  out += "], \"folded_spans\": ";
  out += std::to_string(folded_);
  out += ", \"dropped_spans\": ";
  out += std::to_string(dropped_);
  out += "}";
  return out;
}

std::string ProfileAccumulator::WriteFolded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& row : table_) {
    if (row.second.self_wall_us <= 0) continue;
    out += row.first;
    out.push_back(' ');
    out += std::to_string(row.second.self_wall_us);
    out.push_back('\n');
  }
  return out;
}

}  // namespace ustl
