// Sustained serving QPS: back-to-back small batches, where executor v3
// earns its keep.
//
// Motivation (ROADMAP north star): production traffic is not one giant
// batch — it is an endless stream of small requests, and at that cadence
// the pre-v3 serving path paid a std::thread spawn + join per batch, so
// sustained cost was dominated by thread churn rather than the flat-tree
// kernels. This harness measures exactly that regime: batches of 1 / 8 /
// 64 tuples issued back to back at 1 / 2 / 4 worker threads, through
//   * pointer:  per-batch thread spawning over the pointer model
//               (ClassifyDistribution shards joined per call — the v2
//               ForEachShard execution model, kept here as the baseline),
//   * compiled: one persistent PredictSession per
//               configuration (session-owned worker pool created once,
//               zero threads spawned per batch, zero steady-state
//               allocations),
// for both a single UDT tree and an 8-tree forest. Before timing, every
// configuration re-checks the serving guarantee: compiled distributions
// byte-identical to the pointer path.
//
// Output: one table row and one JSON row per configuration
// (bench_common JsonRows, BENCH_sustained_serving.json) with batches/sec
// and tuples/sec. batch_size and threads are emitted as strings: they are
// identity dimensions of the sweep, and tools/check_bench_schema.py keys
// configuration coverage on string-valued fields.
//
// Run: build/bench/bench_sustained_serving [--full] [--scale=F] [--s=N]
//      [--json=PATH]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_forest.h"
#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
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

// The pre-v3 execution model, reproduced as the baseline: classify one
// batch by spawning `num_threads` fresh std::threads over contiguous
// shards of a classify callback and joining them — exactly what
// the sessions' shard loop did before the persistent executor.
template <typename ClassifyRange>
void SpawnJoinShards(size_t n, int num_threads, ClassifyRange fn) {
  if (num_threads <= 1 || n < 2) {
    fn(size_t{0}, n);
    return;
  }
  if (static_cast<size_t>(num_threads) > n) {
    num_threads = static_cast<int>(n);
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  const size_t per_shard = n / static_cast<size_t>(num_threads);
  const size_t remainder = n % static_cast<size_t>(num_threads);
  size_t begin = 0;
  for (int t = 0; t < num_threads; ++t) {
    const size_t len =
        per_shard + (static_cast<size_t>(t) < remainder ? 1 : 0);
    workers.emplace_back(fn, begin, begin + len);
    begin += len;
  }
  for (std::thread& worker : workers) worker.join();
}

struct Measurement {
  double seconds = 0.0;
  int repeats = 0;
};

// Runs `pass` once to warm up (faults in scratch, builds the session
// pool), then often enough to fill ~0.15s of wall time.
template <typename Pass>
Measurement TimePasses(Pass pass) {
  pass();
  WallTimer probe;
  pass();
  // Floor the probe at 1ns: on a coarse clock both reads can land in the
  // same tick, and casting 0.15/0.0 to int would be UB, not just wrong.
  double one = std::max(probe.ElapsedSeconds(), 1e-9);
  int repeats = std::clamp(static_cast<int>(std::ceil(0.15 / one)), 1, 4000);
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) pass();
  return {timer.ElapsedSeconds(), repeats};
}

// One sweep over {batch_size} x {threads} x {pointer, compiled} for one
// model. `classify_pointer(i, out)` fills the pointer-path distribution
// of serve tuple i; `run_compiled(span, options, flat)` is the persistent
// session's batch entry point.
template <typename ClassifyPointer, typename RunCompiled>
void RunModel(const char* model_name, const Dataset& serve, int num_classes,
              ClassifyPointer classify_pointer, RunCompiled run_compiled,
              bench::JsonRows* sink) {
  const size_t total = serve.tuples().size();

  // The serving guarantee, re-checked before anything is timed.
  std::vector<std::vector<double>> reference(total);
  for (size_t i = 0; i < total; ++i) {
    reference[i].resize(static_cast<size_t>(num_classes));
    classify_pointer(i, reference[i].data());
  }
  {
    FlatBatchResult flat;
    UDT_CHECK(run_compiled(std::span<const UncertainTuple>(
                               serve.tuples().data(), total),
                           PredictOptions{.num_threads = 1}, &flat)
                  .ok());
    for (size_t i = 0; i < total; ++i) {
      UDT_CHECK(std::memcmp(flat.distribution(i).data(), reference[i].data(),
                            static_cast<size_t>(num_classes) *
                                sizeof(double)) == 0);
    }
  }

  for (size_t batch_size : {size_t{1}, size_t{8}, size_t{64}}) {
    for (int threads : {1, 2, 4}) {
      // The serving guarantee again, per configuration: this thread count
      // through the persistent executor, byte-identical to the pointer
      // path, re-checked under -O3 before anything is timed.
      {
        FlatBatchResult flat;
        PredictOptions check;
        check.num_threads = threads;
        UDT_CHECK(run_compiled(std::span<const UncertainTuple>(
                                   serve.tuples().data(), total),
                               check, &flat)
                      .ok());
        for (size_t i = 0; i < total; ++i) {
          UDT_CHECK(std::memcmp(flat.distribution(i).data(),
                                reference[i].data(),
                                static_cast<size_t>(num_classes) *
                                    sizeof(double)) == 0);
        }
      }

      // Batches cycle through the serve set so the working set stays
      // realistic; `cursor` persists across repeats.
      size_t cursor = 0;
      auto next_batch = [&]() {
        if (cursor + batch_size > total) cursor = 0;
        std::span<const UncertainTuple> batch(
            serve.tuples().data() + cursor, batch_size);
        cursor += batch_size;
        return batch;
      };

      std::vector<double> pointer_out(batch_size *
                                      static_cast<size_t>(num_classes));
      Measurement pointer = TimePasses([&] {
        std::span<const UncertainTuple> batch = next_batch();
        const size_t base =
            static_cast<size_t>(batch.data() - serve.tuples().data());
        SpawnJoinShards(batch.size(), threads, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            classify_pointer(base + i,
                             pointer_out.data() +
                                 i * static_cast<size_t>(num_classes));
          }
        });
      });

      cursor = 0;
      FlatBatchResult flat;
      PredictOptions options;
      options.num_threads = threads;
      Measurement compiled = TimePasses([&] {
        UDT_CHECK(run_compiled(next_batch(), options, &flat).ok());
      });

      const double pointer_bps =
          pointer.repeats / std::max(pointer.seconds, 1e-12);
      const double compiled_bps =
          compiled.repeats / std::max(compiled.seconds, 1e-12);
      const double bsz = static_cast<double>(batch_size);
      std::printf("%-6s batch=%-3zu threads=%d  pointer %9.0f batch/s   "
                  "compiled %9.0f batch/s   speedup %.2fx\n",
                  model_name, batch_size, threads, pointer_bps, compiled_bps,
                  compiled_bps / std::max(pointer_bps, 1e-12));

      for (const char* path : {"pointer", "compiled"}) {
        const bool is_compiled = std::strcmp(path, "compiled") == 0;
        const Measurement& m = is_compiled ? compiled : pointer;
        const double bps = is_compiled ? compiled_bps : pointer_bps;
        sink->AddRow()
            .Str("model", model_name)
            .Str("path", path)
            .Str("batch_size", std::to_string(batch_size))
            .Str("threads", std::to_string(threads))
            .Int("repeats", m.repeats)
            .Num("seconds", m.seconds)
            .Num("batches_per_sec", bps)
            .Num("tuples_per_sec", bps * bsz);
      }
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "Sustained serving: back-to-back small batches, persistent executor "
      "vs per-batch thread spawning",
      "serving-path extension (not a paper figure); Section 3.2 traversal",
      options);
  udt::bench::JsonRows sink("sustained_serving", options);

  const double scale = options.scale > 0.0 ? options.scale
                       : options.full      ? 1.0
                                           : 0.5;
  const int s = udt::bench::SamplesFor(options, 16);
  const int train_n = static_cast<int>(400 * scale);
  const int serve_n = 256;  // cycled through; batch sizes divide into it

  std::printf("train %d tuples, serve pool %d tuples, s=%d per pdf\n\n",
              train_n, serve_n, s);

  udt::Dataset train = udt::NumericDataset(train_n, 4, 3, s, 42);
  udt::Dataset serve = udt::NumericDataset(serve_n, 4, 3, s, 1042);

  {
    udt::TreeConfig config;
    config.algorithm = udt::SplitAlgorithm::kUdtEs;
    auto model = udt::Trainer(config).TrainUdt(train);
    UDT_CHECK(model.ok());
    udt::CompiledForest compiled = model->Compile();
    udt::PredictSession session(compiled);
    udt::RunModel(
        "tree", serve, compiled.num_classes(),
        [&](size_t i, double* out) {
          std::vector<double> d =
              model->ClassifyDistribution(serve.tuple(static_cast<int>(i)));
          std::memcpy(out, d.data(), d.size() * sizeof(double));
        },
        [&](std::span<const udt::UncertainTuple> batch,
            const udt::PredictOptions& opts, udt::FlatBatchResult* flat) {
          return session.PredictBatchInto(batch, opts, flat);
        },
        &sink);
  }
  std::printf("\n");
  {
    udt::ForestConfig config;
    config.tree.algorithm = udt::SplitAlgorithm::kUdtEs;
    config.num_trees = 8;
    config.seed = 7;
    auto forest = udt::ForestTrainer(config).TrainUdt(train);
    UDT_CHECK(forest.ok());
    udt::CompiledForest compiled = forest->Compile();
    udt::PredictSession session(compiled);
    udt::RunModel(
        "forest", serve, compiled.num_classes(),
        [&](size_t i, double* out) {
          std::vector<double> d =
              forest->ClassifyDistribution(serve.tuple(static_cast<int>(i)));
          std::memcpy(out, d.data(), d.size() * sizeof(double));
        },
        [&](std::span<const udt::UncertainTuple> batch,
            const udt::PredictOptions& opts, udt::FlatBatchResult* flat) {
          return session.PredictBatchInto(batch, opts, flat);
        },
        &sink);
  }

  sink.Flush();
  return 0;
}
