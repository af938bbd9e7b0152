// Fig 6: "Execution time" of AVG, UDT, UDT-BP, UDT-LP, UDT-GP, UDT-ES on
// every Table 2 data set (the paper plots seconds on a log scale), plus a
// thread-scaling column for the parallel construction engine.
//
// Expected shape (paper): AVG fastest; among the distribution-based
// algorithms the ordering UDT > UDT-BP > UDT-LP > UDT-GP > UDT-ES, with
// UDT-ES within a small factor (1.62x-9.65x) of AVG on favourable data
// sets. Absolute seconds differ from the paper's 2008 Java testbed; the
// ordering and ratios are the reproduced result. The xNt column is this
// codebase's contribution on top of the paper: the same tree built with
// --threads workers (bitwise-identical output), reported as the speedup
// over the serial build of the same algorithm. Both sides of that ratio
// are the best of the same number of builds.
//
// Every (data set, algorithm) cell is also emitted as a JSON row to
// BENCH_fig6_execution_time.json for trajectory tracking across commits.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/task_pool.h"
#include "eval/experiment.h"

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "bench_fig6_execution_time: tree-construction wall-clock time",
      "Fig 6 (Section 6.1), all data sets, s=100 w=10% at --full", options);

  int s = udt::bench::SamplesFor(options, 20);
  const double kW = 0.10;
  // Resolve --threads=0 ("one per hardware thread") to the actual count
  // so the printed columns and the JSON rows name the real concurrency.
  const int threads = udt::TaskPool::EffectiveConcurrency(options.num_threads);
  udt::bench::JsonRows json("fig6_execution_time", options);

  const std::vector<udt::SplitAlgorithm> kAlgorithms = {
      udt::SplitAlgorithm::kAvg,   udt::SplitAlgorithm::kUdt,
      udt::SplitAlgorithm::kUdtBp, udt::SplitAlgorithm::kUdtLp,
      udt::SplitAlgorithm::kUdtGp, udt::SplitAlgorithm::kUdtEs};

  std::printf("\nbuild time in seconds (w=%.0f%%, s=%d, Gaussian); "
              "x%dt = speedup of the same build at %d threads\n\n",
              kW * 100, s, threads, threads);
  std::printf("%-14s", "data set");
  for (udt::SplitAlgorithm a : kAlgorithms) {
    std::printf(" %9s", udt::SplitAlgorithmToString(a));
  }
  std::printf("  %6s  %8s  %8s\n", "ES/AVG", "UDTx", "ESx");

  for (const udt::datagen::UciDatasetSpec& spec :
       udt::datagen::UciCatalogue()) {
    double scale = udt::bench::ScaleFor(spec, options, 120);
    auto ds = udt::PrepareUncertainDataset(spec, scale, kW, s,
                                           udt::ErrorModel::kGaussian);
    UDT_CHECK(ds.ok());

    std::printf("%-14s", spec.name.c_str());
    double avg_seconds = 0.0;
    double es_seconds = 0.0;
    double udt_speedup = 0.0;
    double es_speedup = 0.0;
    // Best of two runs at reduced scale to damp cold-start noise, for the
    // serial and the parallel side of a speedup alike.
    const int repetitions = options.full ? 1 : 2;
    auto best_build_seconds = [&](const udt::Dataset& data,
                                  const udt::TreeConfig& config) {
      double best = 0.0;
      for (int rep = 0; rep < repetitions; ++rep) {
        auto stats = udt::MeasureTreeBuild(data, config);
        UDT_CHECK(stats.ok());
        best = rep == 0 ? stats->build_seconds
                        : std::min(best, stats->build_seconds);
      }
      return best;
    };
    for (udt::SplitAlgorithm algorithm : kAlgorithms) {
      udt::TreeConfig config;
      config.algorithm = algorithm;
      // AVG trains on the means view, as Trainer::TrainAveraging does.
      const double seconds =
          algorithm == udt::SplitAlgorithm::kAvg
              ? best_build_seconds(ds->ToMeans(), config)
              : best_build_seconds(*ds, config);
      std::printf(" %9.3f", seconds);
      if (algorithm == udt::SplitAlgorithm::kAvg) avg_seconds = seconds;
      if (algorithm == udt::SplitAlgorithm::kUdtEs) es_seconds = seconds;

      // Thread-scaling column: the two algorithms the paper's story hangs
      // on (exhaustive UDT and the production choice UDT-ES), rebuilt on
      // the parallel engine.
      double parallel_seconds = 0.0;
      double speedup = 0.0;
      bool scaled = threads != 1 &&
                    (algorithm == udt::SplitAlgorithm::kUdt ||
                     algorithm == udt::SplitAlgorithm::kUdtEs);
      if (scaled) {
        udt::TreeConfig parallel_config = config;
        parallel_config.num_threads = threads;
        parallel_seconds = best_build_seconds(*ds, parallel_config);
        speedup = parallel_seconds > 0.0 ? seconds / parallel_seconds : 0.0;
        if (algorithm == udt::SplitAlgorithm::kUdt) udt_speedup = speedup;
        if (algorithm == udt::SplitAlgorithm::kUdtEs) es_speedup = speedup;
      }

      auto row = json.AddRow();
      row.Str("bench", "fig6")
          .Str("dataset", spec.name)
          .Str("algorithm", udt::SplitAlgorithmToString(algorithm))
          .Int("s", s)
          .Num("w", kW)
          .Num("seconds", seconds);
      if (scaled) {
        row.Int("threads", threads)
            .Num("parallel_seconds", parallel_seconds)
            .Num("speedup", speedup);
      }
    }
    std::printf("  %5.2fx  %7.2fx  %7.2fx\n",
                avg_seconds > 0.0 ? es_seconds / avg_seconds : 0.0,
                udt_speedup, es_speedup);
  }
  std::printf("\nreading: per row, times should descend from UDT to UDT-ES; "
              "AVG is the point-data baseline. UDTx/ESx are the wall-clock "
              "speedups of the %d-thread build (identical tree bytes; "
              "expect ~1.0x when the machine has a single core).\n",
              threads);
  json.Flush();
  return 0;
}
