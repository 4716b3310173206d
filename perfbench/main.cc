// Entry point of the end-to-end benchmark program; run.py builds and
// calls it:
//
//   ustl_perfbench --workload paper3_parallel --seed 7 --seconds 50 --trace 0
//                  --work-dir DIR --trace-dir DIR [--commit SHA]
//                  [--source-sha256 HASH]
//
// Prints a run record, one line per metric (value, unit, sample count) and,
// last, the result line. Exits 1 when an output check fails.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/clock.h"

namespace {

using namespace ustl;
using namespace ustl::perfbench;

struct Args {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 20;
  int trace = 0;
  std::string work_dir;
  std::string trace_dir;
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
};

void Usage() {
  std::fprintf(stderr,
               "usage: ustl_perfbench --workload paper3_serial|paper3_parallel|"
               "small_stream\n"
               "         --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--trace-dir DIR\n"
               "         [--commit SHA] [--source-sha256 HASH]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-sha256") {
      args->source_sha256 = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         !args->trace_dir.empty();
}

/// CPU milliseconds of a fixed integer loop: says what machine state a
/// recorded number came from.
double CalibrationMs() {
  const int64_t start = ThreadCpuMicros();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t sum = 0;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x & 0xff;
  }
  volatile uint64_t sink = sum;
  (void)sink;
  return static_cast<double>(ThreadCpuMicros() - start) / 1e3;
}

std::string RunRecord(const Args& args) {
  std::vector<double> calibration;
  for (int i = 0; i < 5; ++i) calibration.push_back(CalibrationMs());
  std::string samples;
  for (double ms : calibration) {
    samples += (samples.empty() ? "" : ", ") + std::to_string(ms);
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(NDEBUG)
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"hardware_concurrency\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"asserts\": \"%s\", \"commit\": \"%s\", "
      "\"source_sha256\": \"%s\", \"calibration_cpu_ms\": %.3f, "
      "\"calibration_samples_ms\": [%s]}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), compiler.c_str(),
      USTL_PERFBENCH_BUILD_TYPE, asserts, args.commit.c_str(),
      args.source_sha256.c_str(), Quantile(calibration, 0.5),
      samples.c_str());
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const std::string run_name =
      args.workload + "-seed" + std::to_string(args.seed);
  const std::string work_dir = args.work_dir + "/" + run_name;
  int exit_code = 0;
  try {
    const std::string record = RunRecord(args);
    std::printf("{\"run_record\": %s}\n", record.c_str());
    std::fflush(stdout);
    std::filesystem::remove_all(work_dir);
    Inputs inputs = PrepareInputs(args.workload, args.seed, work_dir);
    ModeResult result;
    if (args.trace == 0) {
      result = RunTimed(inputs, args.seconds);
    } else {
      std::filesystem::create_directories(args.trace_dir);
      result = RunTraced(inputs, args.trace_dir + "/" + run_name + ".json",
                         record);
    }
    for (const Metric& metric : result.metrics) {
      std::printf("{\"metric\": \"%s\", \"value\": %.12g, \"unit\": \"%s\", "
                  "\"samples\": %zu}\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  metric.samples);
    }
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    }
    std::string metrics;
    for (const Metric& metric : result.metrics) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
      metrics += buffer;
    }
    const bool correct = result.errors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", result.attempted, result.failed,
                metrics.c_str());
    exit_code = correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    exit_code = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);
  return exit_code;
}
