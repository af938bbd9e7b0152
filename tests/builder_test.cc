// Tests for TreeBuilder: stopping rules, pre-pruning, fractional recursion,
// determinism and serialisation round trips.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/builder.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "tree/classify.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

Dataset SeparableDataset(int n, double gap, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < n; ++i) {
    int label = i % 2;
    double center = label == 0 ? rng.Uniform(0.0, 1.0)
                               : rng.Uniform(1.0 + gap, 2.0 + gap);
    auto pdf = MakeGaussianErrorPdf(center, 0.4, 12);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, label};
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

TreeConfig BaseConfig(SplitAlgorithm algorithm) {
  TreeConfig config;
  config.algorithm = algorithm;
  config.min_split_weight = 2.0;
  config.post_prune = false;
  return config;
}

TEST(BuilderTest, SeparableDataYieldsPerfectTree) {
  Dataset ds = SeparableDataset(40, 1.0, 3);
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  int correct = 0;
  for (int i = 0; i < ds.num_tuples(); ++i) {
    if (PredictLabel(*tree, ds.tuple(i)) == ds.tuple(i).label) ++correct;
  }
  EXPECT_EQ(correct, ds.num_tuples());
}

TEST(BuilderTest, PureNodeBecomesLeaf) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 10; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(double(i)))}, 0};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
  EXPECT_NEAR(tree->root().distribution[0], 1.0, 1e-12);
}

TEST(BuilderTest, MaxDepthRespected) {
  Dataset ds = SeparableDataset(60, 0.0, 5);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdtEs);
  config.max_depth = 2;
  auto tree = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree->depth(), 3);  // root at depth 1 + two split levels
}

TEST(BuilderTest, MinSplitWeightStopsGrowth) {
  Dataset ds = SeparableDataset(20, 0.2, 7);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdt);
  config.min_split_weight = 1000.0;  // larger than the data set
  auto tree = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
}

TEST(BuilderTest, MinGainStopsUselessSplits) {
  // Identical class mixtures at every value: no split has positive gain.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 12; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(double(i / 2)))},
        i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdt);
  config.min_gain = 1e-6;
  auto tree = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
  EXPECT_NEAR(tree->root().distribution[0], 0.5, 1e-12);
}

TEST(BuilderTest, EmptyDatasetRejected) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  EXPECT_FALSE(tree.ok());
}

TEST(BuilderTest, InvalidConfigRejected) {
  Dataset ds = SeparableDataset(10, 1.0, 1);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdt);
  config.max_depth = 0;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
  config = BaseConfig(SplitAlgorithm::kUdt);
  config.split_options.es_endpoint_sample_rate = 0.0;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
  config = BaseConfig(SplitAlgorithm::kUdt);
  config.pruning_confidence = 1.5;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
}

TEST(BuilderTest, StatsPopulated) {
  Dataset ds = SeparableDataset(30, 0.5, 11);
  BuildStats stats;
  auto tree =
      TreeBuilder(BaseConfig(SplitAlgorithm::kUdtGp)).Build(ds, &stats);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(stats.nodes, 0);
  EXPECT_GT(stats.leaves, 0);
  EXPECT_GT(stats.counters.dispersion_evaluations, 0);
  EXPECT_GE(stats.build_seconds, 0.0);
  EXPECT_EQ(stats.nodes, tree->num_nodes());  // no post-pruning here
}

TEST(BuilderTest, DeterministicAcrossRuns) {
  Dataset ds = SeparableDataset(30, 0.3, 13);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdtEs);
  auto tree_a = TreeBuilder(config).Build(ds, nullptr);
  auto tree_b = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree_a.ok() && tree_b.ok());
  EXPECT_EQ(SerializeTree(*tree_a), SerializeTree(*tree_b));
}

TEST(BuilderTest, FractionalTuplesPropagateWeights) {
  // Every pdf straddles the only sensible split, so the children must see
  // fractional weights; leaf counts must still sum to the data-set size.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 10; ++i) {
    auto pdf = MakeUniformErrorPdf(i % 2 == 0 ? -0.5 : 0.5, 2.0, 16);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->root().is_leaf());
  double left_total = 0.0, right_total = 0.0;
  for (double c : tree->root().left->class_counts) left_total += c;
  for (double c : tree->root().right->class_counts) right_total += c;
  EXPECT_NEAR(left_total + right_total, 10.0, 1e-6);
  // Fractional: neither side holds an integral count.
  EXPECT_GT(left_total, 0.0);
  EXPECT_GT(right_total, 0.0);
}

TEST(BuilderTest, PostPruningShrinksNoisyTree) {
  // Labels independent of the attribute: any grown structure is noise and
  // pessimistic pruning should collapse (most of) it.
  Rng rng(17);
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 60; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(rng.Uniform01()))},
        rng.Bernoulli(0.5) ? 1 : 0};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig no_prune = BaseConfig(SplitAlgorithm::kUdt);
  no_prune.min_gain = 0.0;
  TreeConfig with_prune = no_prune;
  with_prune.post_prune = true;

  BuildStats stats;
  auto grown = TreeBuilder(no_prune).Build(ds, nullptr);
  auto pruned = TreeBuilder(with_prune).Build(ds, &stats);
  ASSERT_TRUE(grown.ok() && pruned.ok());
  EXPECT_LT(pruned->num_nodes(), grown->num_nodes());
  EXPECT_GT(stats.subtrees_collapsed, 0);
}

TEST(BuilderTest, RoundTripThroughTreeIo) {
  Dataset ds = SeparableDataset(24, 0.4, 19);
  auto tree =
      TreeBuilder(BaseConfig(SplitAlgorithm::kUdtBp)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  std::string text = SerializeTree(*tree);
  auto parsed = ParseTree(text, ds.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(SerializeTree(*parsed), text);
  // Parsed tree classifies identically.
  for (int i = 0; i < ds.num_tuples(); ++i) {
    EXPECT_EQ(PredictLabel(*parsed, ds.tuple(i)),
              PredictLabel(*tree, ds.tuple(i)));
  }
}

TEST(BuilderTest, MultiAttributePicksInformativeOne) {
  // A1 is noise, A2 separates classes: the root must split A2.
  Rng rng(23);
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 30; ++i) {
    int label = i % 2;
    UncertainTuple t;
    t.label = label;
    t.values.push_back(
        UncertainValue::Numerical(SampledPdf::PointMass(rng.Uniform01())));
    t.values.push_back(UncertainValue::Numerical(
        SampledPdf::PointMass(label == 0 ? rng.Uniform(0.0, 1.0)
                                         : rng.Uniform(2.0, 3.0))));
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  auto tree =
      TreeBuilder(BaseConfig(SplitAlgorithm::kUdtLp)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->root().is_leaf());
  EXPECT_EQ(tree->root().attribute, 1);
}

TEST(BuilderTest, ForeignPresortedAxesRejected) {
  // Scans index an axis by tuple and point, so axes presorted from a data
  // set of another shape must be refused, not read out of bounds.
  Dataset ds = SeparableDataset(20, 1.0, 31);
  const std::vector<double> weights(20, 1.0);
  TreeBuilder builder(BaseConfig(SplitAlgorithm::kUdtEs));
  auto expect_rejected = [&](const PresortedAxes& axes, const char* what) {
    StatusOr<DecisionTree> tree = builder.Build(ds, nullptr, &axes);
    ASSERT_FALSE(tree.ok()) << what;
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument) << what;
    tree = builder.BuildWeighted(ds, weights, nullptr, &axes);
    ASSERT_FALSE(tree.ok()) << what;
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument) << what;
  };
  // Fewer tuples.
  expect_rejected(PresortedAxes::Build(SeparableDataset(19, 1.0, 31), nullptr),
                  "tuple count");
  // The same tuple count, but one tuple with another number of points.
  Dataset other = SeparableDataset(19, 1.0, 31);
  UncertainTuple extra{{UncertainValue::Numerical(SampledPdf::PointMass(0.5))},
                       0};
  ASSERT_TRUE(other.AddTuple(extra).ok());
  expect_rejected(PresortedAxes::Build(other, nullptr), "point count");
  // Another attribute count.
  Dataset wide(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < ds.num_tuples(); ++i) {
    UncertainTuple t = ds.tuple(i);
    t.values.push_back(t.values[0]);
    ASSERT_TRUE(wide.AddTuple(t).ok());
  }
  expect_rejected(PresortedAxes::Build(wide, nullptr), "attribute count");
  // Nothing presorted.
  expect_rejected(PresortedAxes(), "empty axes");

  // The data set's own axes are accepted.
  const PresortedAxes own = PresortedAxes::Build(ds, nullptr);
  EXPECT_TRUE(builder.Build(ds, nullptr, &own).ok());
  EXPECT_TRUE(builder.BuildWeighted(ds, weights, nullptr, &own).ok());
}

TEST(BuilderTest, PresortTimedOnlyWhenTheBuildPresorts) {
  Dataset ds = SeparableDataset(30, 0.5, 37);
  TreeBuilder builder(BaseConfig(SplitAlgorithm::kUdtEs));
  BuildStats own;
  ASSERT_TRUE(builder.Build(ds, &own).ok());
  EXPECT_GT(own.presort_seconds, 0.0);
  EXPECT_LE(own.presort_seconds, own.build_seconds);

  const PresortedAxes axes = PresortedAxes::Build(ds, nullptr);
  BuildStats shared;
  ASSERT_TRUE(builder.Build(ds, &shared, &axes).ok());
  EXPECT_EQ(shared.presort_seconds, 0.0);

  BuildStats total = own;
  total += shared;
  EXPECT_EQ(total.presort_seconds, own.presort_seconds);
}

}  // namespace
}  // namespace udt
