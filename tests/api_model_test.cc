// Tests for the batch-first udt::Model / udt::Trainer facade: batch
// inference must be bitwise-identical to the per-tuple loop for any thread
// count, and Save -> Load must round-trip predictions exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/model.h"
#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

// Unwraps a PredictBatch result that the test expects to succeed.
BatchResult MustPredictBatch(const Model& model, const Dataset& ds,
                             const PredictOptions& options = {}) {
  auto result = model.PredictBatch(ds, options);
  UDT_CHECK(result.ok());
  return std::move(*result);
}

// A three-class data set with enough structure for a non-trivial tree.
Dataset MakeDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 2.0, 1.0), 1.5, 12);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// A mixed numerical + categorical data set exercising schema round-trips.
Dataset MakeMixedDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"reading", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 3},
      },
      {"low", "high"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    auto pdf = MakeGaussianErrorPdf(
        rng.Gaussian(t.label == 0 ? -1.0 : 1.0, 0.8), 1.0, 10);
    UDT_CHECK(pdf.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    std::vector<double> probs(3, 0.2);
    probs[static_cast<size_t>((i + t.label) % 3)] = 0.6;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Model TrainModel(const Dataset& ds, ModelKind kind) {
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).Train(TrainRequest::For(ds, kind));
  UDT_CHECK(model.ok());
  return std::move(*model);
}

// Batch output must equal the per-tuple loop exactly — same doubles, same
// labels — for every thread count (the sharding must not reorder, merge or
// otherwise touch results).
void ExpectBatchMatchesLoop(const Model& model, const Dataset& test,
                            int num_threads) {
  PredictOptions options;
  options.num_threads = num_threads;
  BatchResult batch = MustPredictBatch(model, test, options);

  ASSERT_EQ(batch.distributions.size(),
            static_cast<size_t>(test.num_tuples()));
  ASSERT_EQ(batch.labels.size(), static_cast<size_t>(test.num_tuples()));
  for (int i = 0; i < test.num_tuples(); ++i) {
    std::vector<double> expected = model.ClassifyDistribution(test.tuple(i));
    const auto ui = static_cast<size_t>(i);
    ASSERT_EQ(batch.distributions[ui].size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      // Bitwise equality, not EXPECT_NEAR: identical code must run.
      EXPECT_EQ(batch.distributions[ui][c], expected[c])
          << "tuple " << i << " class " << c << " threads " << num_threads;
    }
    EXPECT_EQ(batch.labels[ui], model.Predict(test.tuple(i)));
  }
}

TEST(ModelPredictBatchTest, SingleThreadMatchesPerTupleLoop) {
  Dataset ds = MakeDataset(120, 3, 17);
  Model model = TrainModel(ds, ModelKind::kUdt);
  ExpectBatchMatchesLoop(model, ds, 1);
}

TEST(ModelPredictBatchTest, FourThreadsMatchPerTupleLoop) {
  Dataset ds = MakeDataset(120, 3, 17);
  Model model = TrainModel(ds, ModelKind::kUdt);
  ExpectBatchMatchesLoop(model, ds, 4);
}

TEST(ModelPredictBatchTest, ThreadCountsAgreeWithEachOther) {
  Dataset ds = MakeDataset(90, 2, 23);
  Model model = TrainModel(ds, ModelKind::kUdt);
  BatchResult one = MustPredictBatch(model, ds, {.num_threads = 1});
  for (int threads : {2, 3, 4, 7}) {
    BatchResult many = MustPredictBatch(model, ds, {.num_threads = threads});
    ASSERT_EQ(many.distributions.size(), one.distributions.size());
    EXPECT_EQ(many.labels, one.labels) << "threads=" << threads;
    for (size_t i = 0; i < one.distributions.size(); ++i) {
      EXPECT_EQ(many.distributions[i], one.distributions[i])
          << "tuple " << i << " threads " << threads;
    }
  }
}

TEST(ModelPredictBatchTest, AveragingKindReducesTuplesToMeans) {
  Dataset ds = MakeDataset(90, 2, 31);
  Model model = TrainModel(ds, ModelKind::kAveraging);
  EXPECT_EQ(model.kind(), ModelKind::kAveraging);
  // The batch path must apply the same means reduction as the scalar path.
  ExpectBatchMatchesLoop(model, ds, 4);
}

TEST(ModelPredictBatchTest, ThreadCountClampedToBatchSize) {
  Dataset ds = MakeDataset(6, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  BatchResult result = MustPredictBatch(model, ds, {.num_threads = 64});
  EXPECT_LE(result.num_threads_used, 6);
  ExpectBatchMatchesLoop(model, ds, 64);
}

TEST(ModelPredictBatchTest, NegativeThreadCountRejected) {
  Dataset ds = MakeDataset(12, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  auto result = model.PredictBatch(ds, {.num_threads = -1});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelPredictBatchTest, ZeroThreadsMeansHardwareConcurrency) {
  Dataset ds = MakeDataset(40, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  auto zero = model.PredictBatch(ds, {.num_threads = 0});
  ASSERT_TRUE(zero.ok());
  EXPECT_GE(zero->num_threads_used, 1);
  BatchResult one = MustPredictBatch(model, ds, {.num_threads = 1});
  EXPECT_EQ(zero->labels, one.labels);
  for (size_t i = 0; i < one.distributions.size(); ++i) {
    EXPECT_EQ(zero->distributions[i], one.distributions[i]) << i;
  }
}

TEST(ModelPredictBatchTest, EmptyBatch) {
  Dataset ds = MakeDataset(30, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  auto result = model.PredictBatch(std::span<const UncertainTuple>(),
                                   {.num_threads = 4});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->distributions.empty());
  EXPECT_TRUE(result->labels.empty());
}

TEST(ModelPersistenceTest, SerializeDeserializeRoundTrip) {
  Dataset ds = MakeDataset(100, 3, 41);
  Model model = TrainModel(ds, ModelKind::kUdt);

  auto restored = Model::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->kind(), ModelKind::kUdt);
  EXPECT_EQ(restored->tree().num_nodes(), model.tree().num_nodes());
  EXPECT_EQ(restored->class_names(), model.class_names());
  EXPECT_EQ(restored->config().algorithm, model.config().algorithm);
  EXPECT_EQ(restored->config().max_depth, model.config().max_depth);

  // Predictions must be identical tuple by tuple, batch vs batch.
  BatchResult before = MustPredictBatch(model, ds, {.num_threads = 4});
  BatchResult after = MustPredictBatch(*restored, ds, {.num_threads = 4});
  EXPECT_EQ(before.labels, after.labels);
  for (size_t i = 0; i < before.distributions.size(); ++i) {
    EXPECT_EQ(before.distributions[i], after.distributions[i]) << i;
  }
}

TEST(ModelPersistenceTest, SaveLoadFileRoundTrip) {
  Dataset ds = MakeMixedDataset(120, 53);
  Model model = TrainModel(ds, ModelKind::kUdt);

  std::string path = testing::TempDir() + "/udt_api_model_test.model";
  ASSERT_TRUE(model.Save(path).ok());
  auto restored = Model::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(path.c_str());

  // Schema (including the categorical attribute) travels with the file.
  EXPECT_EQ(restored->schema().num_attributes(), 2);
  EXPECT_EQ(restored->schema().attribute(1).kind,
            AttributeKind::kCategorical);
  EXPECT_EQ(restored->schema().attribute(1).num_categories, 3);
  EXPECT_EQ(restored->schema().attribute(0).name, "reading");

  BatchResult before = MustPredictBatch(model, ds);
  BatchResult after = MustPredictBatch(*restored, ds, {.num_threads = 4});
  EXPECT_EQ(before.labels, after.labels);
  for (size_t i = 0; i < before.distributions.size(); ++i) {
    EXPECT_EQ(before.distributions[i], after.distributions[i]) << i;
  }
}

TEST(ModelPersistenceTest, AveragingKindSurvivesRoundTrip) {
  Dataset ds = MakeDataset(90, 2, 61);
  Model model = TrainModel(ds, ModelKind::kAveraging);

  auto restored = Model::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->kind(), ModelKind::kAveraging);
  // A reloaded averaging model must keep reducing tuples to their means.
  BatchResult before = MustPredictBatch(model, ds);
  BatchResult after = MustPredictBatch(*restored, ds);
  EXPECT_EQ(before.labels, after.labels);
}

TEST(ModelPersistenceTest, SplitOptionsSurviveRoundTrip) {
  Dataset ds = MakeDataset(90, 2, 77);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtGp;
  config.split_options.use_percentile_endpoints = true;
  config.split_options.percentiles_per_class = 5;
  config.split_options.es_endpoint_sample_rate = 0.25;
  config.split_options.min_side_mass = 1e-6;
  auto model = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(model.ok());

  auto restored = Model::Deserialize(model->Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const SplitOptions& opts = restored->config().split_options;
  EXPECT_TRUE(opts.use_percentile_endpoints);
  EXPECT_EQ(opts.percentiles_per_class, 5);
  EXPECT_EQ(opts.es_endpoint_sample_rate, 0.25);
  EXPECT_EQ(opts.min_side_mass, 1e-6);
}

TEST(ModelPersistenceTest, DeserializeAcceptsCrlfLineEndings) {
  Dataset ds = MakeDataset(60, 2, 83);
  Model model = TrainModel(ds, ModelKind::kUdt);
  // Simulate a file written through a text-mode stream on Windows.
  std::string text = model.Serialize();
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto restored = Model::Deserialize(crlf);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->tree().num_nodes(), model.tree().num_nodes());
}

TEST(ModelPersistenceTest, DeserializeRejectsMalformed) {
  EXPECT_FALSE(Model::Deserialize("").ok());
  EXPECT_FALSE(Model::Deserialize("not-a-model").ok());
  EXPECT_FALSE(Model::Deserialize("udt-model v1\nkind bogus\n").ok());
  EXPECT_FALSE(Model::Deserialize("udt-model v1\nkind udt\n").ok());
  EXPECT_FALSE(
      Model::Deserialize("udt-model v1\nkind udt\nclasses 2\nA\nB\n").ok());
  // Hostile counts must fail with a Status, not a bad_alloc.
  EXPECT_FALSE(
      Model::Deserialize("udt-model v1\nkind udt\nclasses 2000000000\n")
          .ok());
  EXPECT_FALSE(Model::Deserialize("udt-model v1\nkind udt\nclasses 2\nA\nB\n"
                                  "attributes 2000000000\n")
                   .ok());
}

TEST(ModelPersistenceTest, LoadMissingFileFails) {
  auto missing = Model::Load("/nonexistent/path/model.txt");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

TEST(TrainerTest, SharedTreeIsImmutableAndShared) {
  Dataset ds = MakeDataset(60, 2, 3);
  Model model = TrainModel(ds, ModelKind::kUdt);
  std::shared_ptr<const DecisionTree> tree = model.shared_tree();
  Model copy = model;  // copies pointers, not trees
  EXPECT_EQ(&copy.tree(), tree.get());
}

TEST(TrainerTest, AveragingOverridesAlgorithm) {
  Dataset ds = MakeDataset(60, 2, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainAveraging(ds);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->config().algorithm, SplitAlgorithm::kAvg);
}

TEST(TrainerTest, ConcurrentTrainingSharesDatasetSafely) {
  // Concurrent Trainer::Train calls on distinct configs aliasing one
  // read-only Dataset must be safe — including trainers that themselves
  // run multi-threaded builds (nested pools). Each result must equal the
  // tree the same config trains serially in isolation.
  Dataset ds = MakeDataset(130, 3, 19);
  const std::vector<SplitAlgorithm> algorithms = {
      SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtGp,
      SplitAlgorithm::kUdtEs};

  std::vector<std::string> expected(algorithms.size());
  for (size_t i = 0; i < algorithms.size(); ++i) {
    TreeConfig config;
    config.algorithm = algorithms[i];
    auto model = Trainer(config).TrainUdt(ds);
    ASSERT_TRUE(model.ok());
    expected[i] = SerializeTree(model->tree());
  }

  std::vector<std::string> actual(algorithms.size());
  std::vector<std::string> errors(algorithms.size());
  {
    std::vector<std::thread> trainers;
    trainers.reserve(algorithms.size());
    for (size_t i = 0; i < algorithms.size(); ++i) {
      trainers.emplace_back([&ds, &algorithms, &actual, &errors, i] {
        TreeConfig config;
        config.algorithm = algorithms[i];
        config.num_threads = 2;  // nested parallelism inside each trainer
        auto model = Trainer(config).TrainUdt(ds);
        if (!model.ok()) {
          errors[i] = model.status().ToString();
          return;
        }
        actual[i] = SerializeTree(model->tree());
      });
    }
    for (std::thread& t : trainers) t.join();
  }

  for (size_t i = 0; i < algorithms.size(); ++i) {
    ASSERT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(actual[i], expected[i])
        << "algorithm " << SplitAlgorithmToString(algorithms[i]);
  }
}

TEST(TrainerTest, EmptyDatasetFails) {
  Dataset empty(Schema::Numerical(2, {"A", "B"}));
  auto model = Trainer().TrainUdt(empty);
  EXPECT_FALSE(model.ok());
}

}  // namespace
}  // namespace udt
