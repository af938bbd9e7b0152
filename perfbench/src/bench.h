// Shared declarations of the benchmark's workloads (workloads.cc) and its
// command-line front end (main.cc).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// nproc: the number of CPUs the process may run on, which is the number
// of training and session threads per workload. Call it first from the
// main thread, before any thread is pinned.
int Nproc();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one workload run reports. `attempted` counts every checked
// operation (warm-up included); `failed` those with a non-OK status, shed,
// or an output that did not match its reference.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines (per-phase sent/succeeded/failed counts, tails
  // with sample counts, generator lateness) printed before the result.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Untraced runs: each reports the end-to-end metrics of its workload.
Outcome RunTrain(const Options& options);
Outcome RunBatch(const Options& options);
Outcome RunServe(const Options& options);
Outcome RunAdaptive(const Options& options);

// The traced run: every layer's metrics, from traced slices of all four
// workloads; the set-up spans are those of `options.workload`.
Outcome RunTraced(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
