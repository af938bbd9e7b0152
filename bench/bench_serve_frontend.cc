// Serving front end: direct-session vs coalesced-queue latency and QPS.
//
// Motivation (ROADMAP north star): the executor work made one session
// fast; the serving front end (src/serve/) is what sits between "millions
// of users" and that session. This harness measures the cost/benefit of
// its admission layer with a closed-loop multi-client driver
// (serve/serve_harness.h): each client issues single-tuple requests back
// to back, cycling a serve pool, through
//   * direct: one private PredictSession per client — the no-front-end
//             baseline (no queuing delay, but per-client sessions and no
//             hot swap),
//   * queue:  one shared BatchingQueue bound to a ModelRegistry entry —
//             micro-batch coalescing (max_batch/max_delay_us) over a
//             single persistent session, with per-drain registry
//             snapshots (atomic hot swap for free).
// at 1 / 2 / 4 client threads, for a single UDT tree and an 8-tree
// forest. Before timing, every model re-checks the serving guarantee:
// queue results byte-identical to the direct session for every tuple.
//
// Output: one table row and one JSON row per configuration (bench_common
// JsonRows, BENCH_serve_frontend.json) with sustained QPS and
// p50/p95/p99 request latency in microseconds. model/mode/clients are
// emitted as strings: they are identity dimensions of the sweep, and
// tools/check_bench_schema.py keys configuration coverage on
// string-valued fields.
//
// Run: build/bench/bench_serve_frontend [--full] [--scale=F] [--s=N]
//      [--json=PATH]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/predict_session.h"
#include "api/trainer.h"
#include "bench_common.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "serve/serve_harness.h"

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

// The serving guarantee for the front end: every queue response is
// byte-identical to the direct session's answer for that tuple.
void CheckQueueMatchesDirect(const CompiledForest& servable,
                             const Dataset& pool) {
  PredictSession direct(servable);
  FlatBatchResult reference;
  UDT_CHECK(direct
                .PredictBatchInto(
                    std::span<const UncertainTuple>(pool.tuples().data(),
                                                    pool.tuples().size()),
                    PredictOptions{}, &reference)
                .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);

  serve::ModelRegistry registry;
  UDT_CHECK(registry.Publish("check", servable) == 1);
  serve::BatchingConfig config;
  config.max_batch = 16;
  config.max_delay_us = 200;
  serve::BatchingQueue queue(&registry, "check", config);
  std::vector<std::future<serve::ServeResult>> futures;
  for (const UncertainTuple& tuple : pool.tuples()) {
    futures.push_back(queue.Submit(&tuple));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::ServeResult result = futures[i].get();
    UDT_CHECK(result.status.ok());
    UDT_CHECK(result.label == reference.labels[i]);
    UDT_CHECK(std::memcmp(result.distribution.data(),
                          reference.distribution(i).data(),
                          k * sizeof(double)) == 0);
  }
}

void RunModel(const char* model_name, const CompiledForest& servable,
              const Dataset& pool, size_t requests_per_client,
              bench::JsonRows* sink) {
  CheckQueueMatchesDirect(servable, pool);

  std::span<const UncertainTuple> tuples(pool.tuples().data(),
                                         pool.tuples().size());
  for (int clients : {1, 2, 4}) {
    serve::HarnessOptions options;
    options.num_clients = clients;
    options.requests_per_client = requests_per_client;

    serve::LatencyStats direct =
        serve::RunDirectClients(servable, tuples, options);

    // Two coalescing policies: eager (max_delay 0 — drain whatever is
    // pending the moment the drainer is free; batches emerge from
    // backlog) and a fixed 100us window (bounded wait to fill batches —
    // the window price is visible directly in p50).
    auto run_queue = [&](int64_t max_delay_us) {
      serve::ModelRegistry registry;
      UDT_CHECK(registry.Publish("bench", servable) == 1);
      serve::BatchingConfig config;
      config.max_batch = 32;
      config.max_delay_us = max_delay_us;
      serve::BatchingQueue queue(&registry, "bench", config);
      serve::LatencyStats stats =
          serve::RunQueueClients(&queue, tuples, options);
      queue.Close();
      return stats;
    };
    serve::LatencyStats eager = run_queue(0);
    serve::LatencyStats windowed = run_queue(100);

    for (const char* mode : {"direct", "queue_eager", "queue_100us"}) {
      const serve::LatencyStats& s =
          std::strcmp(mode, "direct") == 0
              ? direct
              : (std::strcmp(mode, "queue_eager") == 0 ? eager : windowed);
      std::printf("%-6s %-6s clients=%d  %9.0f req/s   p50 %7.1fus   "
                  "p95 %7.1fus   p99 %7.1fus\n",
                  model_name, mode, clients, s.qps, s.p50_us, s.p95_us,
                  s.p99_us);
      sink->AddRow()
          .Str("model", model_name)
          .Str("mode", mode)
          .Str("clients", std::to_string(clients))
          .Int("requests", static_cast<long long>(s.requests))
          .Int("failed", static_cast<long long>(s.failed))
          .Num("seconds", s.wall_seconds)
          .Num("qps", s.qps)
          .Num("p50_us", s.p50_us)
          .Num("p95_us", s.p95_us)
          .Num("p99_us", s.p99_us);
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "Serving front end: direct sessions vs coalesced admission queue, "
      "closed-loop clients",
      "serving-path extension (not a paper figure); Section 3.2 traversal",
      options);
  udt::bench::JsonRows sink("serve_frontend", options);

  const double scale = options.scale > 0.0 ? options.scale
                       : options.full      ? 1.0
                                           : 0.5;
  const int s = udt::bench::SamplesFor(options, 16);
  const int train_n = static_cast<int>(400 * scale);
  const size_t requests = options.full ? 20000 : 5000;

  std::printf("train %d tuples, serve pool 256 tuples, s=%d per pdf, "
              "%zu requests/client\n\n",
              train_n, s, requests);

  udt::Dataset train = udt::NumericDataset(train_n, 4, 3, s, 42);
  udt::Dataset pool = udt::NumericDataset(256, 4, 3, s, 1042);

  {
    udt::TreeConfig config;
    config.algorithm = udt::SplitAlgorithm::kUdtEs;
    auto model = udt::Trainer(config).TrainUdt(train);
    UDT_CHECK(model.ok());
    udt::RunModel("tree", model->Compile(), pool, requests, &sink);
  }
  std::printf("\n");
  {
    udt::ForestConfig config;
    config.tree.algorithm = udt::SplitAlgorithm::kUdtEs;
    config.num_trees = 8;
    config.seed = 7;
    auto forest = udt::ForestTrainer(config).TrainUdt(train);
    UDT_CHECK(forest.ok());
    udt::RunModel("forest", forest->Compile(), pool, requests, &sink);
  }

  sink.Flush();
  return 0;
}
