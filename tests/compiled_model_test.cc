// A compiled tree (a one-tree CompiledForest): flattening invariants
// (breadth-first layout, pooled leaf table) and the versioned serialisation
// contract — Save/Load must rebuild a bitwise-identical in-memory layout,
// and malformed or hostile input must fail with a Status.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/compiled_model.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

Dataset NumericDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 1.5, 1.0), 1.2, 10);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Dataset MixedDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"x", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 3},
      },
      {"p", "q"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    auto pdf = MakeGaussianErrorPdf(
        rng.Gaussian(t.label == 0 ? -1.0 : 1.0, 0.7), 0.9, 8);
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

CompiledModel CompileFresh(const Dataset& ds) {
  auto model = Trainer().TrainUdt(ds);
  UDT_CHECK(model.ok());
  return model->Compile();
}

TEST(FlattenTest, BreadthFirstLayoutInvariants) {
  CompiledModel compiled = CompileFresh(NumericDataset(150, 3, 21));
  const FlatTree& flat = compiled.flat_tree();
  ASSERT_GE(flat.num_nodes(), 3);
  EXPECT_EQ(flat.num_classes, 3);
  EXPECT_GT(flat.num_leaves(), 0);

  for (int i = 0; i < flat.num_nodes(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    switch (flat.node_kind(i)) {
      case FlatNodeKind::kLeaf:
        EXPECT_EQ(flat.attribute[ui], -1);
        EXPECT_LE(flat.first[ui] + flat.num_classes,
                  static_cast<int>(flat.leaf_values.size()));
        break;
      case FlatNodeKind::kNumerical:
        // Children are contiguous, later in the array (BFS order).
        EXPECT_GT(flat.first[ui], i);
        EXPECT_LT(flat.first[ui] + 1, flat.num_nodes());
        break;
      case FlatNodeKind::kCategorical:
        EXPECT_GT(flat.num_children[ui], 0);
        break;
    }
  }
}

TEST(FlattenTest, LeafDistributionsArePooled) {
  CompiledModel compiled = CompileFresh(NumericDataset(150, 3, 33));
  const FlatTree& flat = compiled.flat_tree();
  // The pool stores at most one entry per leaf, and every leaf offset must
  // point at a whole distribution inside the pool.
  EXPECT_LE(flat.leaf_values.size(),
            static_cast<size_t>(flat.num_leaves()) *
                static_cast<size_t>(flat.num_classes));
  EXPECT_EQ(flat.leaf_values.size() %
                static_cast<size_t>(flat.num_classes),
            0u);
}

TEST(CompiledPersistenceTest, SerializeRoundTripIsLayoutIdentical) {
  for (bool mixed : {false, true}) {
    CompiledModel compiled = mixed ? CompileFresh(MixedDataset(120, 5))
                                   : CompileFresh(NumericDataset(150, 3, 21));
    auto restored = CompiledModel::Deserialize(compiled.Serialize());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(restored->LayoutEquals(compiled)) << "mixed=" << mixed;
    EXPECT_EQ(restored->kind(), compiled.kind());
    EXPECT_EQ(restored->class_names(), compiled.class_names());
  }
}

TEST(CompiledPersistenceTest, SaveLoadFileRoundTrip) {
  Dataset ds = MixedDataset(120, 9);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  CompiledModel compiled = model->Compile();

  std::string path = testing::TempDir() + "/udt_compiled_model_test.compiled";
  ASSERT_TRUE(compiled.Save(path).ok());
  auto restored = CompiledModel::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(path.c_str());

  EXPECT_TRUE(restored->LayoutEquals(compiled));

  // Layout-identical artifacts must serve identical bytes.
  PredictSession before(compiled);
  PredictSession after(*restored);
  auto b = before.PredictBatch(ds);
  auto a = after.PredictBatch(ds);
  ASSERT_TRUE(b.ok() && a.ok());
  EXPECT_EQ(b->labels, a->labels);
  for (size_t i = 0; i < b->distributions.size(); ++i) {
    EXPECT_EQ(b->distributions[i], a->distributions[i]) << i;
  }
}

TEST(CompiledPersistenceTest, AveragingKindSurvivesRoundTrip) {
  Dataset ds = NumericDataset(90, 2, 61);
  auto model = Trainer().TrainAveraging(ds);
  ASSERT_TRUE(model.ok());
  CompiledModel compiled = model->Compile();
  auto restored = CompiledModel::Deserialize(compiled.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->kind(), ModelKind::kAveraging);
  EXPECT_TRUE(restored->LayoutEquals(compiled));
}

TEST(CompiledPersistenceTest, OneTreeArtifactIsAForestOfOne) {
  // A tree compiles to the forest container: one tree, kAverage voting,
  // the model's own kind.
  Dataset ds = NumericDataset(90, 2, 63);
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    auto model = Trainer().Train(TrainRequest::For(ds, kind));
    ASSERT_TRUE(model.ok());
    CompiledModel compiled = model->Compile();
    EXPECT_EQ(compiled.num_trees(), 1);
    EXPECT_EQ(compiled.vote(), ForestVote::kAverage);
    EXPECT_EQ(compiled.kind(), kind);
    const std::string text = compiled.Serialize();
    EXPECT_EQ(text.rfind("udt-forest v1\n", 0), 0u);
    EXPECT_NE(text.find("\nvote avg\n"), std::string::npos);
    EXPECT_NE(text.find("\ntrees 1\n"), std::string::npos);
  }
}

// Deserialize must fail, and with the message of the check the input
// targets — a failure for an unrelated reason (say, an early truncation)
// would leave the targeted check untested.
void ExpectRejected(const std::string& text, const std::string& reason) {
  auto compiled = CompiledModel::Deserialize(text);
  ASSERT_FALSE(compiled.ok()) << "accepted: " << text;
  EXPECT_NE(compiled.status().message().find(reason), std::string::npos)
      << compiled.status().message();
}

TEST(CompiledPersistenceTest, DeserializeRejectsMalformed) {
  EXPECT_FALSE(CompiledModel::Deserialize("").ok());
  ExpectRejected("not-a-compiled-model", "bad magic line");
  // A v1 *model* container is not a compiled container.
  ExpectRejected("udt-model v1\nkind udt\n", "bad magic line");
  ExpectRejected("udt-forest v1\nkind bogus\n", "unknown model kind");
  // Hostile counts fail with a Status, not a bad_alloc.
  ExpectRejected(
      "udt-forest v1\nkind udt\nvote avg\n"
      "classes 2000000000\n",
      "bad class count");
}

TEST(CompiledPersistenceTest, RetiredSingleTreeContainerIsBadMagic) {
  // The former single-tree container is no longer read: a tree ships as a
  // one-tree "udt-forest v1".
  ExpectRejected(
      "udt-compiled v1\nkind udt\nclasses 2\nA\nB\n"
      "attributes 1\nattr num 0 x\n"
      "tables nodes=1 children=0 leaves=2\n"
      "n 0 -1 0x0p+0 0 0\n"
      "0x1p-1 0x1p-1\n",
      "bad magic line: udt-compiled v1");
}

TEST(CompiledPersistenceTest, DeserializeRejectsStructurallyInvalid) {
  // Valid header, structurally broken tree sections: every variant must be
  // caught by validation, never crash a traversal later.
  const std::string header =
      "udt-forest v1\nkind udt\nvote avg\nclasses 2\nA\nB\n"
      "attributes 1\nattr num 0 x\ntrees 1\n";
  // Root's left child id points backwards (cycle).
  ExpectRejected(header +
                     "tables nodes=3 children=0 leaves=4\n"
                     "n 1 0 0x1p+0 0 0\n"
                     "n 0 -1 0x0p+0 0 0\n"
                     "n 0 -1 0x0p+0 2 0\n"
                     "0x1p-1 0x1p-1 0x1p-1 0x1p-1\n",
                 "numerical child out of range");
  // Left child id of INT32_MAX: the range check must not wrap.
  ExpectRejected(header +
                     "tables nodes=3 children=0 leaves=4\n"
                     "n 1 0 0x1p+0 2147483647 0\n"
                     "n 0 -1 0x0p+0 0 0\n"
                     "n 0 -1 0x0p+0 2 0\n"
                     "0x1p-1 0x1p-1 0x1p-1 0x1p-1\n",
                 "numerical child out of range");
  // Leaf offset beyond the pooled table.
  ExpectRejected(header +
                     "tables nodes=3 children=0 leaves=4\n"
                     "n 1 0 0x1p+0 1 0\n"
                     "n 0 -1 0x0p+0 0 0\n"
                     "n 0 -1 0x0p+0 4 0\n"
                     "0x1p-1 0x1p-1 0x1p-1 0x1p-1\n",
                 "leaf offset out of range");
  // Numerical split on a categorical attribute id.
  const std::string cat_header =
      "udt-forest v1\nkind udt\nvote avg\nclasses 2\nA\nB\n"
      "attributes 1\nattr cat 3 c\ntrees 1\n";
  ExpectRejected(cat_header +
                     "tables nodes=3 children=0 leaves=4\n"
                     "n 1 0 0x1p+0 1 0\n"
                     "n 0 -1 0x0p+0 0 0\n"
                     "n 0 -1 0x0p+0 2 0\n"
                     "0x1p-1 0x1p-1 0x1p-1 0x1p-1\n",
                 "bad numerical attribute id");
  // Truncated leaf table.
  ExpectRejected(header +
                     "tables nodes=1 children=0 leaves=2\n"
                     "n 0 -1 0x0p+0 0 0\n"
                     "0x1p-1\n",
                 "leaf table holds 1 entries, expected 2");
}

TEST(CompiledPersistenceTest, AcceptsMinimalValidArtifact) {
  // Smallest well-formed artifact: a one-tree forest of a single leaf.
  // Doubles written as hexfloats must load to the exact bit pattern.
  const std::string text =
      "udt-forest v1\nkind udt\nvote avg\nclasses 2\nA\nB\n"
      "attributes 1\nattr num 0 x\ntrees 1\n"
      "tables nodes=1 children=0 leaves=2\n"
      "n 0 -1 0x0p+0 0 0\n"
      "0x1.5555555555555p-2 0x1.5555555555556p-1\n";
  auto compiled = CompiledModel::Deserialize(text);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->num_nodes(), 1);
  EXPECT_EQ(compiled->flat_tree().leaf_values[0], 0x1.5555555555555p-2);
  EXPECT_EQ(compiled->flat_tree().leaf_values[1], 0x1.5555555555556p-1);
  // And a second encode/decode is stable.
  auto again = CompiledModel::Deserialize(compiled->Serialize());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->LayoutEquals(*compiled));
}

TEST(CompiledPersistenceTest, LoadMissingFileFails) {
  auto missing = CompiledModel::Load("/nonexistent/path/model.compiled");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace udt
