// Forest serving throughput: pointer-forest voting vs the compiled flat
// layout, plus the training-side cost of the ensemble.
//
// Motivation (ROADMAP north star): an uncertain-data forest multiplies the
// serving cost of a single UDT tree by its ensemble size, so the compiled
// PredictSession path — per-worker scratch, per-tree flat records,
// allocation-free vote aggregation — is what makes N-tree serving viable
// at traffic. This harness trains a bagged forest per data set / model
// kind, re-checks the serving guarantee (compiled votes byte-identical to
// the pointer voting path), then times steady-state batch classification
// through both paths at 1/2/4 worker threads, for both vote rules on the
// compiled path's model kinds.
//
// Output: one table row and one JSON row (bench_common JsonRows,
// BENCH_forest_throughput.json) per configuration, with tuples/sec,
// ensemble size and the single-tree baseline for an apples-to-apples
// slowdown factor.
//
// Run: build/bench/bench_forest_throughput [--full] [--scale=F] [--s=N]
//      [--threads=N] [--json=PATH]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

Dataset NumericDataset(int tuples, int attributes, int classes, int s,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back("c" + std::to_string(c));
  Dataset ds(Schema::Numerical(attributes, names));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % classes;
    for (int j = 0; j < attributes; ++j) {
      double center = rng.Gaussian(static_cast<double>(t.label) * 1.2, 1.0);
      auto pdf = MakeGaussianErrorPdf(center, rng.Uniform(0.5, 1.5), s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// Pointer-path reference: per-tuple ForestModel::ClassifyDistribution over
// contiguous shards.
void PointerBatch(const ForestModel& forest, const Dataset& ds,
                  int num_threads, std::vector<std::vector<double>>* out) {
  const size_t n = static_cast<size_t>(ds.num_tuples());
  out->resize(n);
  auto classify_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      (*out)[i] =
          forest.ClassifyDistribution(ds.tuple(static_cast<int>(i)));
    }
  };
  if (num_threads <= 1) {
    classify_range(0, n);
    return;
  }
  std::vector<std::thread> workers;
  const size_t per_shard = n / static_cast<size_t>(num_threads);
  const size_t remainder = n % static_cast<size_t>(num_threads);
  size_t begin = 0;
  for (int t = 0; t < num_threads; ++t) {
    const size_t len = per_shard + (static_cast<size_t>(t) < remainder ? 1 : 0);
    workers.emplace_back(classify_range, begin, begin + len);
    begin += len;
  }
  for (std::thread& worker : workers) worker.join();
}

struct Measurement {
  double seconds = 0.0;
  int repeats = 0;
};

// Runs `pass` once to warm up, then often enough to fill ~0.25s.
template <typename Pass>
Measurement TimePasses(Pass pass) {
  pass();  // warm-up: fault in scratch, settle allocator state
  WallTimer probe;
  pass();
  double one = probe.ElapsedSeconds();
  int repeats = std::clamp(static_cast<int>(std::ceil(0.25 / one)), 1, 200);
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) pass();
  return {timer.ElapsedSeconds(), repeats};
}

void RunDataset(const char* dataset_name, const Dataset& train,
                const Dataset& serve, int num_trees, bench::JsonRows* sink) {
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    const char* kind_name = kind == ModelKind::kUdt ? "udt" : "avg";

    ForestConfig config;
    config.num_trees = num_trees;
    config.seed = 42;
    config.subspace_attributes = ForestConfig::kSubspaceSqrt;
    config.tree.algorithm = SplitAlgorithm::kUdtEs;

    ForestTrainer trainer(config);
    OobEstimate oob;
    WallTimer train_timer;
    TrainRequest request = TrainRequest::For(train, kind);
    request.oob = &oob;
    auto forest = trainer.Train(request);
    UDT_CHECK(forest.ok());
    const double train_seconds = train_timer.ElapsedSeconds();

    WallTimer compile_timer;
    CompiledForest compiled = forest->Compile();
    const double compile_seconds = compile_timer.ElapsedSeconds();

    // The serving guarantee, re-checked in the harness itself: compiled
    // votes byte-identical to the pointer voting path.
    std::vector<std::vector<double>> reference;
    PointerBatch(*forest, serve, 1, &reference);
    {
      PredictSession session(compiled);
      FlatBatchResult flat;
      UDT_CHECK(session
                    .PredictBatchInto(
                        std::span<const UncertainTuple>(
                            serve.tuples().data(), serve.tuples().size()),
                        {.num_threads = 1}, &flat)
                    .ok());
      const size_t k = static_cast<size_t>(compiled.num_classes());
      for (size_t i = 0; i < reference.size(); ++i) {
        UDT_CHECK(std::memcmp(flat.distribution(i).data(),
                              reference[i].data(), k * sizeof(double)) == 0);
      }
    }

    for (int threads : {1, 2, 4}) {
      std::vector<std::vector<double>> pointer_out;
      Measurement pointer = TimePasses(
          [&] { PointerBatch(*forest, serve, threads, &pointer_out); });

      PredictSession session(compiled);
      FlatBatchResult flat;
      PredictOptions options;
      options.num_threads = threads;
      Measurement flat_time = TimePasses([&] {
        UDT_CHECK(session
                      .PredictBatchInto(
                          std::span<const UncertainTuple>(
                              serve.tuples().data(), serve.tuples().size()),
                          options, &flat)
                      .ok());
      });

      const double n = static_cast<double>(serve.num_tuples());
      const double pointer_tps =
          n * pointer.repeats / std::max(pointer.seconds, 1e-12);
      const double compiled_tps =
          n * flat_time.repeats / std::max(flat_time.seconds, 1e-12);
      std::printf("%-8s %-4s trees=%d threads=%d  pointer %9.0f tuples/s   "
                  "compiled %9.0f tuples/s   speedup %.2fx   oob_err %.3f\n",
                  dataset_name, kind_name, num_trees, threads, pointer_tps,
                  compiled_tps, compiled_tps / std::max(pointer_tps, 1e-12),
                  oob.error);

      for (const char* path : {"pointer", "compiled"}) {
        const bool is_compiled = std::strcmp(path, "compiled") == 0;
        sink->AddRow()
            .Str("dataset", dataset_name)
            .Str("model_kind", kind_name)
            .Str("path", path)
            .Int("trees", num_trees)
            .Int("threads", threads)
            .Int("tuples", serve.num_tuples())
            .Int("forest_nodes", compiled.num_nodes())
            .Int("repeats", is_compiled ? flat_time.repeats : pointer.repeats)
            .Num("seconds", is_compiled ? flat_time.seconds : pointer.seconds)
            .Num("tuples_per_sec", is_compiled ? compiled_tps : pointer_tps)
            .Num("train_seconds", train_seconds)
            .Num("compile_seconds", compile_seconds)
            .Num("oob_error", oob.error)
            .Num("oob_coverage", oob.coverage);
      }
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "Forest serving throughput: pointer voting vs compiled flat layout",
      "ensemble extension (not a paper figure); Section 3.2 traversal x N "
      "trees",
      options);
  udt::bench::JsonRows sink("forest_throughput", options);

  const double scale = options.scale > 0.0 ? options.scale
                       : options.full      ? 1.0
                                           : 0.4;
  const int s = udt::bench::SamplesFor(options, 16);
  const int train_n = static_cast<int>(450 * scale);
  const int serve_n = static_cast<int>(750 * scale);
  const int num_trees = options.full ? 25 : 8;

  std::printf("train %d tuples, serve %d tuples, s=%d per pdf, %d trees\n\n",
              train_n, serve_n, s, num_trees);

  {
    udt::Dataset train = udt::NumericDataset(train_n, 4, 3, s, 42);
    udt::Dataset serve = udt::NumericDataset(serve_n, 4, 3, s, 1042);
    udt::RunDataset("numeric", train, serve, num_trees, &sink);
  }

  sink.Flush();
  return 0;
}
