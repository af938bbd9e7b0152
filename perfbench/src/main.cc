// perfbench: runs one workload and prints its metrics. The last line of
// standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (untraced) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this program and drives it.
//
//   perfbench --workload train|batch|serve|adaptive --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|batch|serve|adaptive --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               message);
  std::exit(2);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintNumber(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::string& w = options.workload;
  if (!have_workload ||
      (w != "train" && w != "batch" && w != "serve" && w != "adaptive")) {
    Usage("unknown workload");
  }
  if (options.seconds <= 0.0) Usage("--seconds must be positive");
  const int nproc = perfbench::Nproc();

  perfbench::Outcome outcome;
  if (options.trace) {
    perfbench::Tracer tracer(true);
    outcome = perfbench::RunTraced(options, &tracer);
    if (!trace_out.empty() && !tracer.Write(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  } else {
    if (w == "train") {
      outcome = perfbench::RunTrain(options);
    } else if (w == "batch") {
      outcome = perfbench::RunBatch(options);
    } else if (w == "serve") {
      outcome = perfbench::RunServe(options);
    } else {
      outcome = perfbench::RunAdaptive(options);
    }
    outcome.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  }

  for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());
  std::printf("build: compiler %s, build type %s, nproc %d, seed %llu, "
              "trace %d\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, nproc,
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              outcome.failed == 0 ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return outcome.failed == 0 ? 0 : 1;
}
