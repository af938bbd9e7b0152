// Forest workflow: train a bagged random-subspace UDT forest on noisy
// sensor-style data, read its out-of-bag error, compare it against a
// single UDT tree, then walk the serving path end to end — compile,
// save/load the "udt-forest v1" artifact, and batch-classify through a
// PredictSession.
//
// Run: build/examples/forest_workflow

#include <cstdio>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"

namespace {

// Three overlapping classes of Gaussian-noised readings over 5 channels —
// the regime where the paper shows distribution-based trees (and their
// ensembles) earn their keep.
udt::Dataset MakeReadings(int tuples, int s, uint64_t seed) {
  udt::Rng rng(seed);
  udt::Dataset ds(udt::Schema::Numerical(5, {"calm", "active", "alarm"}));
  for (int i = 0; i < tuples; ++i) {
    udt::UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < 5; ++j) {
      double center = rng.Gaussian(t.label * 1.1 + 0.2 * j, 1.0);
      auto pdf = udt::MakeGaussianErrorPdf(center, rng.Uniform(0.6, 1.4), s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(udt::UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

}  // namespace

int main() {
  udt::Dataset train = MakeReadings(300, 12, 7);
  udt::Dataset test = MakeReadings(200, 12, 1007);

  // --- single-tree baseline ------------------------------------------
  udt::TreeConfig tree_config;
  tree_config.algorithm = udt::SplitAlgorithm::kUdtEs;
  udt::Trainer single(tree_config);
  auto tree = single.TrainUdt(train);
  UDT_CHECK(tree.ok());
  double tree_accuracy = udt::EvaluateAccuracy(*tree, test);

  // --- the forest ----------------------------------------------------
  udt::ForestConfig config;
  config.tree = tree_config;
  config.num_trees = 15;
  config.seed = 4;
  config.subspace_attributes = udt::ForestConfig::kSubspaceSqrt;
  config.num_threads = 0;  // one per hardware thread; same forest anyway

  udt::ForestTrainer trainer(config);
  udt::OobEstimate oob;
  auto forest = trainer.TrainUdt(train, &oob);
  UDT_CHECK(forest.ok());

  std::printf("forest: %d trees, vote=%s\n", forest->num_trees(),
              udt::ForestVoteToString(forest->vote()));
  std::printf("out-of-bag error %.3f (coverage %.2f: %d of %d tuples)\n",
              oob.error, oob.coverage, oob.evaluated_tuples,
              oob.total_tuples);

  // --- serving path: compile, persist, session ------------------------
  udt::CompiledForest compiled = forest->Compile();
  const std::string path = "/tmp/udt_forest_example.udtf";
  UDT_CHECK(compiled.Save(path).ok());
  auto loaded = udt::CompiledForest::Load(path);
  UDT_CHECK(loaded.ok());
  UDT_CHECK(loaded->LayoutEquals(compiled));

  udt::PredictSession session(*loaded);
  auto batch = session.PredictBatch(test);
  UDT_CHECK(batch.ok());

  int correct = 0;
  for (int i = 0; i < test.num_tuples(); ++i) {
    if (batch->labels[static_cast<size_t>(i)] == test.tuple(i).label) {
      ++correct;
    }
  }
  double forest_accuracy =
      static_cast<double>(correct) / test.num_tuples();

  std::printf("held-out accuracy: single tree %.3f, forest %.3f\n",
              tree_accuracy, forest_accuracy);
  std::printf("serving batch: %zu tuples in %.1f ms through the compiled "
              "forest\n",
              batch->labels.size(), batch->total_seconds * 1e3);
  return 0;
}
