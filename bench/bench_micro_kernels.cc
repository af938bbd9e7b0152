// google-benchmark microbenchmarks of the kernels that dominate tree
// construction and serving: CDF queries, scan construction, entropy
// scoring, interval bounding, working-set partitioning, uncertain
// classification, the thread scaling of the parallel construction engine,
// and scalar-vs-batch flat-tree traversal.
//
// Machine-readable output: unless --benchmark_out is given, results are
// also written as google-benchmark JSON to BENCH_micro_kernels.json so
// kernel timings can be tracked as a trajectory across commits. The
// batch-traversal sweep additionally writes bench_common JsonRows to
// BENCH_micro_batch_kernels.json (--json=PATH overrides, --json=
// disables) with batch-vs-scalar ns/tuple and speedup per configuration;
// tools/check_bench_schema.py diffs it against the committed sidecar in
// CI. Before timing, the sweep re-checks that the batch kernels are
// byte-identical to the scalar ones on every tuple.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "split/bounds.h"
#include "split/fractional_tuple.h"
#include "tree/classify.h"
#include "tree/flat_tree.h"

namespace udt {
namespace {

Dataset BenchDataset(int tuples, int attributes, int s, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label), 1.0), 1.0, s);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

void BM_PdfBuildGaussian(benchmark::State& state) {
  int s = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto pdf = MakeGaussianErrorPdf(1.0, 0.5, s);
    benchmark::DoNotOptimize(pdf);
  }
}
BENCHMARK(BM_PdfBuildGaussian)->Arg(20)->Arg(100)->Arg(400);

void BM_CdfQuery(benchmark::State& state) {
  auto pdf = MakeGaussianErrorPdf(0.0, 2.0, static_cast<int>(state.range(0)));
  UDT_CHECK(pdf.ok());
  double z = -0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdf->CdfAtOrBelow(z));
    z = -z;
  }
}
BENCHMARK(BM_CdfQuery)->Arg(20)->Arg(100)->Arg(400);

void BM_ScanBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 1, 20, 1);
  WorkingSet set = MakeRootWorkingSet(ds);
  for (auto _ : state) {
    AttributeScan scan = AttributeScan::Build(ds, set, 0, 3);
    benchmark::DoNotOptimize(scan.num_positions());
  }
}
BENCHMARK(BM_ScanBuild)->Arg(50)->Arg(200)->Arg(800);

void BM_EntropyScore(benchmark::State& state) {
  SplitScorer scorer(DispersionMeasure::kEntropy, {10.0, 20.0, 30.0});
  std::vector<double> left = {3.0, 8.0, 5.0};
  std::vector<double> right = {7.0, 12.0, 25.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(left, right));
  }
}
BENCHMARK(BM_EntropyScore);

void BM_IntervalBound(benchmark::State& state) {
  IntervalMassStats stats;
  stats.nc = {3.0, 8.0, 5.0};
  stats.kc = {1.0, 2.0, 0.5};
  stats.mc = {7.0, 12.0, 25.0};
  SplitScorer scorer(DispersionMeasure::kEntropy, {11.0, 22.0, 30.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreLowerBound(scorer, stats));
  }
}
BENCHMARK(BM_IntervalBound);

void BM_PartitionWorkingSet(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 1, 20, 2);
  WorkingSet set = MakeRootWorkingSet(ds);
  WorkingSet left, right;
  for (auto _ : state) {
    PartitionWorkingSet(ds, set, 0, 1.0, &left, &right);
    benchmark::DoNotOptimize(left.size() + right.size());
  }
}
BENCHMARK(BM_PartitionWorkingSet)->Arg(100)->Arg(400);

void BM_ClassifyUncertainTuple(benchmark::State& state) {
  Dataset ds = BenchDataset(200, 4, 16, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainUdt(ds);
  UDT_CHECK(model.ok());
  const UncertainTuple& tuple = ds.tuple(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->ClassifyDistribution(tuple));
  }
}
BENCHMARK(BM_ClassifyUncertainTuple);

void BM_PredictBatch(benchmark::State& state) {
  Dataset ds = BenchDataset(512, 4, 16, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainUdt(ds);
  UDT_CHECK(model.ok());
  // A long-lived session, as a serving worker would hold: the flat
  // traversal runs out of reusable scratch, so the steady state is
  // allocation-free per tuple.
  PredictSession session(model->Compile());
  PredictOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  FlatBatchResult result;
  for (auto _ : state) {
    UDT_CHECK(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(ds.tuples().data(),
                                                      ds.tuples().size()),
                      options, &result)
                  .ok());
    benchmark::DoNotOptimize(result.labels.data());
  }
  state.SetItemsProcessed(state.iterations() * ds.num_tuples());
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TreeBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 4, 16, 4);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  for (auto _ : state) {
    BuildStats stats;
    auto tree = TreeBuilder(config).Build(ds, &stats);
    benchmark::DoNotOptimize(tree.ok());
  }
}
BENCHMARK(BM_TreeBuild)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

// Thread scaling of the construction engine. The Arg is
// TreeConfig::num_threads; the Arg(1) run must come first (registration
// order) because it provides the serial baseline the other runs report
// their "speedup" counter against. The tree is bitwise-identical at every
// arg; only the wall clock may move.
void BM_TreeBuildThreads(benchmark::State& state) {
  static Dataset ds = BenchDataset(300, 6, 14, 5);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  config.num_threads = static_cast<int>(state.range(0));
  double total_seconds = 0.0;
  for (auto _ : state) {
    WallTimer timer;
    BuildStats stats;
    auto tree = TreeBuilder(config).Build(ds, &stats);
    benchmark::DoNotOptimize(tree.ok());
    total_seconds += timer.ElapsedSeconds();
  }
  double mean_seconds =
      state.iterations() > 0
          ? total_seconds / static_cast<double>(state.iterations())
          : 0.0;
  static double serial_mean_seconds = 0.0;
  if (state.range(0) == 1) serial_mean_seconds = mean_seconds;
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  // Only report a speedup when the serial baseline ran in this process;
  // under --benchmark_filter that excludes Arg(1) the counter would
  // otherwise poison the JSON trajectory with zeros.
  if (mean_seconds > 0.0 && serial_mean_seconds > 0.0) {
    state.counters["speedup"] =
        benchmark::Counter(serial_mean_seconds / mean_seconds);
  }
}
BENCHMARK(BM_TreeBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ------------------------- batch traversal kernels -------------------------

// Shared fixture for the traversal benchmarks: the pool the kernels
// classify and a compiled tree trained on it. Both live for the whole
// process so every benchmark and the JSON sweep measure the same model.
const Dataset& TraversalPool() {
  static Dataset ds = BenchDataset(512, 4, 16, 6);
  return ds;
}

const CompiledForest& TraversalModel(ModelKind kind) {
  static CompiledForest udt = [] {
    TreeConfig config;
    config.algorithm = SplitAlgorithm::kUdtEs;
    auto model = Trainer(config).Train(
        TrainRequest::For(TraversalPool(), ModelKind::kUdt));
    UDT_CHECK(model.ok());
    return model->Compile();
  }();
  static CompiledForest averaging = [] {
    TreeConfig config;
    config.algorithm = SplitAlgorithm::kUdtEs;
    auto model = Trainer(config).Train(
        TrainRequest::For(TraversalPool(), ModelKind::kAveraging));
    UDT_CHECK(model.ok());
    return model->Compile();
  }();
  return kind == ModelKind::kAveraging ? averaging : udt;
}

// One pass over the pool: scalar per-tuple kernel when batch == 0,
// otherwise the level-synchronous batch kernel in chunks of `batch`.
double ClassifyPoolOnce(const FlatTree& flat, bool averaging, size_t batch,
                        const std::vector<const UncertainTuple*>& tuples,
                        const std::vector<double*>& rows,
                        FlatTraversalScratch* scratch) {
  const size_t n = tuples.size();
  WallTimer timer;
  if (batch == 0) {
    for (size_t i = 0; i < n; ++i) {
      if (averaging) {
        ClassifyFlatMeans(flat, *tuples[i], scratch, rows[i]);
      } else {
        ClassifyFlat(flat, *tuples[i], scratch, rows[i]);
      }
    }
  } else {
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t count = std::min(batch, n - begin);
      if (averaging) {
        ClassifyFlatMeansBatch(flat, tuples.data() + begin,
                               rows.data() + begin, count, scratch);
      } else {
        ClassifyFlatBatch(flat, tuples.data() + begin, rows.data() + begin,
                          count, scratch);
      }
    }
  }
  return timer.ElapsedSeconds();
}

// Scalar vs level-synchronous batch traversal of the same compiled UDT
// tree. The Arg is the batch size, with Arg(0) meaning the scalar
// per-tuple kernel; the Arg(0) run must come first (registration order)
// because it provides the baseline the batch runs report their "speedup"
// counter against. The distributions are byte-identical at every arg
// (tests/batch_traversal_test.cc); only the wall clock may move.
void BM_FlatBatchTraversal(benchmark::State& state) {
  const Dataset& ds = TraversalPool();
  const FlatTree& flat = TraversalModel(ModelKind::kUdt).flat_tree();
  const size_t k = static_cast<size_t>(flat.num_classes);
  const size_t n = static_cast<size_t>(ds.num_tuples());
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<double> storage(n * k);
  std::vector<const UncertainTuple*> tuples(n);
  std::vector<double*> rows(n);
  for (size_t i = 0; i < n; ++i) {
    tuples[i] = &ds.tuple(static_cast<int>(i));
    rows[i] = storage.data() + i * k;
  }
  FlatTraversalScratch scratch;
  double total_seconds = 0.0;
  for (auto _ : state) {
    total_seconds +=
        ClassifyPoolOnce(flat, /*averaging=*/false, batch, tuples, rows,
                         &scratch);
    benchmark::DoNotOptimize(storage.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  const double mean_seconds =
      state.iterations() > 0
          ? total_seconds / static_cast<double>(state.iterations())
          : 0.0;
  static double scalar_mean_seconds = 0.0;
  if (state.range(0) == 0) scalar_mean_seconds = mean_seconds;
  state.counters["batch"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  // As in BM_TreeBuildThreads: report a speedup only when the scalar
  // baseline ran in this process, so --benchmark_filter cannot poison the
  // JSON trajectory with zeros.
  if (mean_seconds > 0.0 && scalar_mean_seconds > 0.0) {
    state.counters["speedup"] =
        benchmark::Counter(scalar_mean_seconds / mean_seconds);
  }
}
BENCHMARK(BM_FlatBatchTraversal)->Arg(0)->Arg(1)->Arg(7)->Arg(64)->Arg(256);

// The sidecar sweep behind BENCH_micro_batch_kernels.json: for each model
// kind, first prove the batch kernel byte-identical to the scalar one on
// every pool tuple, then report ns/tuple for the scalar kernel and for
// each batch size, plus the resulting speedup. Runs outside
// google-benchmark so the row set is fixed (the schema checker keys on
// it) regardless of --benchmark_filter.
void RunBatchKernelSweep(bench::JsonRows* sink) {
  const Dataset& ds = TraversalPool();
  const size_t n = static_cast<size_t>(ds.num_tuples());
  constexpr int kRepetitions = 20;
  constexpr size_t kSweepBatches[] = {1, 7, 64, 256};

  std::printf("batch traversal sweep: %zu tuples, %d repetitions, best-of\n",
              n, kRepetitions);
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    const bool averaging = kind == ModelKind::kAveraging;
    const char* kernel = averaging ? "avg" : "udt";
    const FlatTree& flat = TraversalModel(kind).flat_tree();
    const size_t k = static_cast<size_t>(flat.num_classes);

    std::vector<double> scalar_storage(n * k);
    std::vector<double> batch_storage(n * k);
    std::vector<const UncertainTuple*> tuples(n);
    std::vector<double*> scalar_rows(n);
    std::vector<double*> batch_rows(n);
    for (size_t i = 0; i < n; ++i) {
      tuples[i] = &ds.tuple(static_cast<int>(i));
      scalar_rows[i] = scalar_storage.data() + i * k;
      batch_rows[i] = batch_storage.data() + i * k;
    }
    FlatTraversalScratch scratch;

    auto best_of = [&](size_t batch, const std::vector<double*>& rows) {
      double best = 0.0;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        const double seconds =
            ClassifyPoolOnce(flat, averaging, batch, tuples, rows, &scratch);
        if (rep == 0 || seconds < best) best = seconds;
      }
      return std::max(best, 1e-12) * 1e9 / static_cast<double>(n);
    };

    const double scalar_ns = best_of(0, scalar_rows);
    for (size_t batch : kSweepBatches) {
      const double batch_ns = best_of(batch, batch_rows);
      // The serving guarantee, re-checked under this build's optimiser:
      // the final batch pass left every row byte-identical to scalar.
      UDT_CHECK(std::memcmp(batch_storage.data(), scalar_storage.data(),
                            n * k * sizeof(double)) == 0);
      const double speedup = scalar_ns / batch_ns;
      std::printf("  %-4s batch=%-4zu  scalar %8.1f ns/tuple   batch %8.1f "
                  "ns/tuple   speedup %5.2fx\n",
                  kernel, batch, scalar_ns, batch_ns, speedup);
      sink->AddRow()
          .Str("kernel", kernel)
          .Str("batch", std::to_string(batch))
          .Int("tuples", static_cast<long long>(n))
          .Num("scalar_ns_per_tuple", scalar_ns)
          .Num("batch_ns_per_tuple", batch_ns)
          .Num("speedup", speedup);
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  // Default to a JSON sidecar for trajectory tracking; any explicit
  // --benchmark_out wins. A --json=PATH flag belongs to the batch-kernel
  // sweep (bench_common JsonRows) and is stripped before google-benchmark
  // parses the rest.
  udt::BenchOptions sweep_options;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      sweep_options.json_path_set = true;
      sweep_options.json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  bool has_out = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::strncmp(args[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }

  // The batch-kernel sweep runs first so its sidecar row set does not
  // depend on which BM_ benchmarks a filter selects.
  udt::bench::JsonRows sweep_sink("micro_batch_kernels", sweep_options);
  udt::RunBatchKernelSweep(&sweep_sink);
  sweep_sink.Flush();

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
