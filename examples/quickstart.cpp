// Quickstart: the paper's worked example end to end, through the public
// udt::Trainer / udt::Model facade.
//
// Builds a tiny uncertain data set (one numerical attribute, six tuples,
// two classes, mirroring Table 1), trains both model kinds:
//   * AVG  - pdfs collapsed to their means, classical C4.5-style tree
//   * UDT  - full distribution-based tree with fractional tuples
// prints both trees, compares training accuracy (2/3 vs 1.0, as in the
// paper's Section 4 walk-through), and classifies one uncertain test tuple
// showing the probabilistic output of Fig 1 — first alone, then through the
// serving path: Model::Compile -> udt::CompiledForest -> udt::PredictSession.
//
// Run: build/examples/quickstart

#include <cstdio>

#include "api/predict_session.h"
#include "api/trainer.h"
#include "eval/metrics.h"
#include "tree/tree_printer.h"

namespace {

udt::Dataset MakeExampleData() {
  udt::Dataset ds(udt::Schema::Numerical(1, {"A", "B"}));
  auto add = [&ds](std::vector<double> xs, std::vector<double> ps,
                   int label) {
    auto pdf = udt::SampledPdf::Create(std::move(xs), std::move(ps));
    UDT_CHECK(pdf.ok());
    udt::UncertainTuple t{{udt::UncertainValue::Numerical(std::move(*pdf))},
                          label};
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  };
  // Class A tuples (odd tuples have mean +2, even tuples mean -2).
  add({1.0, 5.0}, {0.75, 0.25}, 0);
  add({-1.0, -5.0}, {0.75, 0.25}, 0);
  add({-1.0, 1.0, 10.0}, {0.625, 0.125, 0.25}, 0);  // Table 1's tuple 3
  // Class B tuples.
  add({-5.0, 7.0}, {0.75, 0.25}, 1);
  add({-5.0, 9.0}, {0.5, 0.5}, 1);
  add({-6.0, 2.0}, {0.5, 0.5}, 1);
  return ds;
}

}  // namespace

int main() {
  udt::Dataset train = MakeExampleData();

  std::printf("== Training data (1 uncertain attribute, 6 tuples) ==\n");
  for (int i = 0; i < train.num_tuples(); ++i) {
    const udt::UncertainTuple& t = train.tuple(i);
    std::printf("  tuple %d  class %s  pdf %s  (mean %+.1f)\n", i + 1,
                train.schema().class_name(t.label).c_str(),
                t.values[0].pdf().ToString().c_str(),
                t.values[0].pdf().Mean());
  }

  // The paper shows the example trees before pre/post-pruning.
  udt::TreeConfig config;
  config.min_split_weight = 1e-6;
  config.post_prune = false;
  udt::Trainer trainer(config);

  auto avg = trainer.TrainAveraging(train);
  UDT_CHECK(avg.ok());
  std::printf("\n== AVG tree (pdfs replaced by their means) ==\n%s",
              udt::TreeToString(avg->tree()).c_str());
  std::printf("training accuracy: %.3f\n",
              udt::EvaluateAccuracy(*avg, train));

  trainer.mutable_config().algorithm = udt::SplitAlgorithm::kUdt;
  auto dist = trainer.TrainUdt(train);
  UDT_CHECK(dist.ok());
  std::printf("\n== UDT tree (distribution-based) ==\n%s",
              udt::TreeToString(dist->tree()).c_str());
  std::printf("training accuracy: %.3f\n",
              udt::EvaluateAccuracy(*dist, train));

  // Classify an uncertain test tuple (cf. Fig 1): 30%% of its mass lies
  // below -1, the rest above.
  auto test_pdf = udt::SampledPdf::Create({-2.0, 0.5, 1.5}, {0.3, 0.4, 0.3});
  UDT_CHECK(test_pdf.ok());
  udt::UncertainTuple test{
      {udt::UncertainValue::Numerical(std::move(*test_pdf))}, 0};
  std::vector<double> p = dist->ClassifyDistribution(test);
  std::printf("\n== Classifying test tuple with pdf %s ==\n",
              test.values[0].pdf().ToString().c_str());
  std::printf("P(A) = %.3f, P(B) = %.3f -> predicted class %s\n", p[0], p[1],
              train.schema().class_name(dist->Predict(test)).c_str());

  // The same result serving-style: compile the tree into an immutable flat
  // artifact once, then serve batches through a reusable PredictSession
  // (per-worker scratch, zero allocations per tuple once warm).
  udt::CompiledForest compiled = dist->Compile();
  std::printf("\n== Compiled model: %d flat nodes, %d leaves ==\n",
              compiled.num_nodes(), compiled.flat_tree().num_leaves());
  udt::PredictSession session(compiled);

  std::vector<udt::UncertainTuple> batch(train.tuples());
  batch.push_back(test);
  auto result = session.PredictBatch(batch);
  UDT_CHECK(result.ok());
  std::printf("== PredictSession batch over %zu tuples (%d thread) ==\n",
              batch.size(), result->num_threads_used);
  for (size_t i = 0; i < batch.size(); ++i) {
    std::printf("  tuple %zu -> %s  (P(A)=%.3f, P(B)=%.3f)\n", i + 1,
                train.schema().class_name(result->labels[i]).c_str(),
                result->distributions[i][0], result->distributions[i][1]);
  }
  std::printf("batch wall time: %.1f us\n", result->total_seconds * 1e6);
  return 0;
}
