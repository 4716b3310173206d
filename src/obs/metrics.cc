#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "common/string_util.h"

namespace ustl {

Histogram::Histogram(std::vector<int64_t> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1) {}

void Histogram::Observe(int64_t value) {
  size_t bucket = upper_bounds_.size();  // +Inf unless a bound catches it
  for (size_t i = 0; i < upper_bounds_.size(); ++i) {
    if (value <= upper_bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Aggregate() const {
  Snapshot snap;
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    snap.bucket_counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  return snap;
}

const std::vector<int64_t>& DefaultLatencyBucketsUs() {
  static const std::vector<int64_t> kBuckets = {
      100,      1000,      10000,      100000,
      1000000,  10000000,  100000000};  // 100us .. 100s, decade steps
  return kBuckets;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name,
                                              Kind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  Entry* entry = entries_[it->second].get();
  if (entry->kind != kind) {
    std::fprintf(stderr,
                 "MetricsRegistry: metric '%s' re-registered as a different "
                 "kind\n",
                 name.c_str());
    std::abort();
  }
  return entry;
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name,
                                          const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = Find(name, Kind::kCounter)) return existing->counter.get();
  auto entry = std::unique_ptr<Entry>(new Entry());
  entry->kind = Kind::kCounter;
  entry->name = name;
  entry->help = help;
  entry->counter.reset(new Counter());
  Counter* handle = entry->counter.get();
  index_[name] = entries_.size();
  entries_.push_back(std::move(entry));
  return handle;
}

Gauge* MetricsRegistry::RegisterGauge(const std::string& name,
                                      const std::string& help) {
  return RegisterGauge(name, help, {});
}

Gauge* MetricsRegistry::RegisterGauge(
    const std::string& name, const std::string& help,
    std::vector<std::pair<std::string, std::string>> labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = Find(name, Kind::kGauge)) return existing->gauge.get();
  auto entry = std::unique_ptr<Entry>(new Entry());
  entry->kind = Kind::kGauge;
  entry->name = name;
  entry->help = help;
  if (!labels.empty()) {
    entry->label_suffix = "{";
    bool first = true;
    for (const auto& label : labels) {
      if (!first) entry->label_suffix += ",";
      first = false;
      entry->label_suffix += label.first + "=\"";
      // Prometheus label-value escaping: backslash, quote, newline.
      for (char c : label.second) {
        if (c == '\\' || c == '"') entry->label_suffix.push_back('\\');
        if (c == '\n') {
          entry->label_suffix += "\\n";
        } else {
          entry->label_suffix.push_back(c);
        }
      }
      entry->label_suffix += "\"";
    }
    entry->label_suffix += "}";
  }
  entry->labels = std::move(labels);
  entry->gauge.reset(new Gauge());
  Gauge* handle = entry->gauge.get();
  index_[name] = entries_.size();
  entries_.push_back(std::move(entry));
  return handle;
}

Histogram* MetricsRegistry::RegisterHistogram(const std::string& name,
                                              const std::string& help,
                                              std::vector<int64_t> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = Find(name, Kind::kHistogram)) {
    return existing->histogram.get();
  }
  auto entry = std::unique_ptr<Entry>(new Entry());
  entry->kind = Kind::kHistogram;
  entry->name = name;
  entry->help = help;
  entry->histogram.reset(new Histogram(std::move(upper_bounds)));
  Histogram* handle = entry->histogram.get();
  index_[name] = entries_.size();
  entries_.push_back(std::move(entry));
  return handle;
}

void MetricsRegistry::AddCollector(std::function<void()> collector) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(collector));
}

void MetricsRegistry::RunCollectors() const {
  // Collectors only write gauges (atomics), so running them under the
  // registry mutex serializes concurrent scrapes without blocking any
  // metric update.
  for (const auto& collector : collectors_) collector();
}

std::string MetricsRegistry::WriteText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RunCollectors();
  std::string out;
  char buf[64];
  for (const auto& entry : entries_) {
    out += "# HELP " + entry->name + " " + entry->help + "\n";
    switch (entry->kind) {
      case Kind::kCounter: {
        out += "# TYPE " + entry->name + " counter\n";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(entry->counter->Value()));
        out += entry->name + " " + buf + "\n";
        break;
      }
      case Kind::kGauge: {
        out += "# TYPE " + entry->name + " gauge\n";
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(entry->gauge->Value()));
        out += entry->name + entry->label_suffix + " " + buf + "\n";
        break;
      }
      case Kind::kHistogram: {
        out += "# TYPE " + entry->name + " histogram\n";
        const Histogram& h = *entry->histogram;
        const Histogram::Snapshot snap = h.Aggregate();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += snap.bucket_counts[i];
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(h.upper_bounds()[i]));
          out += entry->name + "_bucket{le=\"" + buf + "\"} ";
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(cumulative));
          out += buf;
          out += "\n";
        }
        cumulative += snap.bucket_counts.back();
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(cumulative));
        out += entry->name + "_bucket{le=\"+Inf\"} " + buf + "\n";
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(snap.sum));
        out += entry->name + "_sum " + buf + "\n";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(snap.count));
        out += entry->name + "_count " + buf + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::WriteJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RunCollectors();
  std::string out = "{\"metrics\": [";
  char buf[64];
  bool first = true;
  for (const auto& entry : entries_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": ";
    AppendJsonString(&out, entry->name);
    switch (entry->kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(entry->counter->Value()));
        out += ", \"type\": \"counter\", \"value\": ";
        out += buf;
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(entry->gauge->Value()));
        out += ", \"type\": \"gauge\"";
        if (!entry->labels.empty()) {
          out += ", \"labels\": {";
          bool first_label = true;
          for (const auto& label : entry->labels) {
            if (!first_label) out += ", ";
            first_label = false;
            AppendJsonString(&out, label.first);
            out += ": ";
            AppendJsonString(&out, label.second);
          }
          out += "}";
        }
        out += ", \"value\": ";
        out += buf;
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        const Histogram::Snapshot snap = h.Aggregate();
        out += ", \"type\": \"histogram\", \"buckets\": [";
        for (size_t i = 0; i < snap.bucket_counts.size(); ++i) {
          if (i) out += ", ";
          out += "{\"le\": ";
          if (i < h.upper_bounds().size()) {
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(h.upper_bounds()[i]));
            out += buf;
          } else {
            out += "\"+Inf\"";
          }
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(snap.bucket_counts[i]));
          out += ", \"count\": ";
          out += buf;
          out += "}";
        }
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(snap.sum));
        out += "], \"sum\": ";
        out += buf;
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(snap.count));
        out += ", \"count\": ";
        out += buf;
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

// /proc/self readings, refreshed by the process collector at scrape
// time. All three return 0 off Linux (and on any read failure), so the
// gauges render as 0 rather than making registration conditional.
int64_t ReadRssBytes() {
#if defined(__linux__)
  FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0;
  long long total_pages = 0;
  long long rss_pages = 0;
  const int parsed = std::fscanf(file, "%lld %lld", &total_pages, &rss_pages);
  std::fclose(file);
  if (parsed != 2) return 0;
  return static_cast<int64_t>(rss_pages) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

int64_t ReadCpuSeconds() {
#if defined(__linux__)
  FILE* file = std::fopen("/proc/self/stat", "r");
  if (file == nullptr) return 0;
  char buffer[1024];
  const size_t len = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  buffer[len] = '\0';
  // Field 2 (comm) may contain spaces; skip past its closing paren, then
  // utime/stime are fields 14/15 (1-based), i.e. 11 fields after state.
  const char* cursor = std::strrchr(buffer, ')');
  if (cursor == nullptr) return 0;
  ++cursor;
  long long utime = 0;
  long long stime = 0;
  int field = 2;  // just consumed pid + comm
  while (*cursor != '\0' && field < 15) {
    while (*cursor == ' ') ++cursor;
    ++field;
    if (field == 14) {
      utime = std::atoll(cursor);
    } else if (field == 15) {
      stime = std::atoll(cursor);
    }
    while (*cursor != '\0' && *cursor != ' ') ++cursor;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return 0;
  return (utime + stime) / ticks;
#else
  return 0;
#endif
}

int64_t ReadOpenFds() {
#if defined(__linux__)
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  int64_t count = 0;
  while (struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  // Exclude the directory stream's own descriptor.
  return count > 0 ? count - 1 : 0;
#else
  return 0;
#endif
}

}  // namespace

std::string BuildCompilerString() {
  char compiler[64];
#if defined(__clang__)
  std::snprintf(compiler, sizeof(compiler), "clang %d.%d.%d", __clang_major__,
                __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
  std::snprintf(compiler, sizeof(compiler), "gcc %d.%d.%d", __GNUC__,
                __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
  std::snprintf(compiler, sizeof(compiler), "unknown");
#endif
  return compiler;
}

const char* BuildTypeString() {
#if defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

void RegisterProcessMetrics(MetricsRegistry* registry) {
  Gauge* rss = registry->RegisterGauge(
      "ustl_process_rss_bytes", "Resident set size from /proc/self/statm.");
  Gauge* cpu = registry->RegisterGauge(
      "ustl_process_cpu_seconds_total",
      "Whole seconds of user+system CPU from /proc/self/stat.");
  Gauge* fds = registry->RegisterGauge(
      "ustl_process_open_fds",
      "Open file descriptors counted in /proc/self/fd.");
  Gauge* build_info = registry->RegisterGauge(
      "ustl_build_info",
      "Constant 1; compiler/build_type labels match the bench "
      "environment JSON.",
      {{"compiler", BuildCompilerString()}, {"build_type", BuildTypeString()}});
  build_info->Set(1);
  registry->AddCollector([rss, cpu, fds] {
    rss->Set(ReadRssBytes());
    cpu->Set(ReadCpuSeconds());
    fds->Set(ReadOpenFds());
  });
}

}  // namespace ustl
