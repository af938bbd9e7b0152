// udt::ForestTrainer / udt::ForestModel — the ensemble half of the public
// facade. A forest is N decision trees over the same uncertain data set,
// diversified two ways:
//
//   * seeded bootstrap bags: each tree trains on a fractional-weight
//     resample of the tuples (weight = bootstrap multiplicity, tuples a
//     bag never drew are left out entirely), and
//   * optional random attribute subspaces: each node of each tree
//     considers only a per-node random subset of the attributes
//     (TreeConfig::subspace_attributes, sampled by node-path token).
//
// Both sources of randomness are pure functions of ForestConfig::seed and
// the tree/node position, never of the thread schedule, so the forest the
// trainer produces is bitwise-identical for every num_threads — the same
// guarantee the single-tree builder makes, lifted to the ensemble
// (tests/forest_determinism_test.cc serialises and compares the bytes).
//
// Serving shares the single-tree stack: ForestModel (pointer trees,
// source of truth, own Save/Load) -> CompiledForest (flat per-tree
// records, api/compiled_forest.h) -> PredictSession (per-worker scratch,
// api/predict_session.h).

#ifndef UDT_API_FOREST_H_
#define UDT_API_FOREST_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/model.h"
#include "api/trainer.h"
#include "common/statusor.h"
#include "core/builder.h"
#include "core/config.h"
#include "table/dataset.h"

namespace udt {

class CompiledForest;

// How per-tree outputs combine into the forest's class distribution.
enum class ForestVote {
  // Mean of the trees' class distributions (soft voting) — the default;
  // uses the full distributional output UDT trees produce.
  kAverage,
  // Each tree casts one vote for its argmax class; the forest distribution
  // is the normalised vote histogram.
  kMajority,
};

const char* ForestVoteToString(ForestVote vote);

// Knobs of one forest training run.
struct ForestConfig {
  // Per-tree construction config. tree.num_threads is ignored: trees build
  // serially inside forest-level tasks (the forest parallelises across
  // trees, which scales better and keeps one determinism mechanism).
  // tree.subspace_attributes / tree.subspace_seed are overwritten per tree
  // from `subspace_attributes` and `seed` below.
  TreeConfig tree;

  // Ensemble size.
  int num_trees = 25;

  // Drives every random choice of the run (bags and subspaces).
  uint64_t seed = 1;

  // Bootstrap bags: when true each tree trains on a multiplicity-weighted
  // resample (N draws with replacement over N tuples); when false every
  // tree sees the full data set (diversify with subspaces instead).
  bool bootstrap = true;

  // Per-node random attribute subspaces: 0 disables (every node considers
  // all attributes), k > 0 samples exactly k, and kSubspaceSqrt picks
  // floor(sqrt(num_attributes)) — the classical random-forest default.
  static constexpr int kSubspaceSqrt = -1;
  int subspace_attributes = 0;

  ForestVote vote = ForestVote::kAverage;

  // Forest-level training parallelism: 1 = serial, 0 = one thread per
  // hardware thread, N > 1 = exactly N. The trained forest is
  // bitwise-identical for every value.
  int num_threads = 1;

  // Validates parameter ranges (including the embedded tree config).
  Status Validate() const;

  // One-line description for experiment logs.
  std::string ToString() const;
};

// Out-of-bag generalisation estimate, computed from the tuples each
// bootstrap bag left out: tuple i is scored by the trees that never drew
// it, so no tree is evaluated on data it trained on.
struct OobEstimate {
  // Tuples with at least one out-of-bag tree (the only ones scored).
  int evaluated_tuples = 0;
  int total_tuples = 0;
  // Fraction of evaluated tuples the out-of-bag vote classifies correctly,
  // and its complement. When nothing was evaluated — bootstrap off, or
  // every tuple in-bag (possible for 1-tree forests on tiny data) — both
  // are quiet NaN and coverage is 0: a 0.0 would read as a catastrophic
  // (or, for error, perfect) forest, so "no estimate" is deliberately not
  // representable as a valid rate. Gate on evaluated_tuples > 0 (or
  // coverage > 0) before consuming either rate.
  double accuracy = std::numeric_limits<double>::quiet_NaN();
  double error = std::numeric_limits<double>::quiet_NaN();
  // evaluated_tuples / total_tuples (≈ 1 - (1-1/N)^trees for real bags).
  double coverage = 0.0;
};

// An immutable trained forest. Obtain one from ForestTrainer::Train,
// ForestModel::Load or ForestModel::Deserialize.
class ForestModel {
 public:
  // Wraps already-trained trees. All trees must share one schema and one
  // kind (checked).
  static ForestModel FromTrees(std::vector<Model> trees, ForestVote vote);

  // ----------------------------------------------------------- metadata

  ModelKind kind() const { return kind_; }
  ForestVote vote() const { return vote_; }
  int num_trees() const { return static_cast<int>(trees_->size()); }
  const std::vector<Model>& trees() const { return *trees_; }
  const Model& tree(int t) const {
    return (*trees_)[static_cast<size_t>(t)];
  }
  const Schema& schema() const { return (*trees_)[0].schema(); }
  const std::vector<std::string>& class_names() const {
    return schema().class_names();
  }
  int num_classes() const { return schema().num_classes(); }

  // --------------------------------------------------------- inference

  // Aggregated probability distribution over class labels for one tuple:
  // per-tree distributions combined under vote(), divided by num_trees
  // last, in tree order — the exact float sequence the compiled serving
  // path replays, so the two are bitwise-identical.
  std::vector<double> ClassifyDistribution(const UncertainTuple& tuple) const;

  // Argmax of ClassifyDistribution (ties -> lowest class id).
  int Predict(const UncertainTuple& tuple) const;

  // Flattens every tree into the immutable serving artifact
  // (api/compiled_forest.h). Serving code should compile once and hold
  // udt::PredictSession values over the result.
  [[nodiscard]] CompiledForest Compile() const;

  // Classifies a batch through a one-shot compiled session
  // (api/predict_session.h); steady-traffic callers should hold a session.
  StatusOr<BatchResult> PredictBatch(std::span<const UncertainTuple> tuples,
                                     const PredictOptions& options = {}) const;
  StatusOr<BatchResult> PredictBatch(const Dataset& data,
                                     const PredictOptions& options = {}) const;

  // -------------------------------------------------------- persistence

  // Self-contained versioned text serialisation ("udt-forest-model v1"):
  // vote + header plus every tree's udt-model container, length-framed.
  std::string Serialize() const;
  static StatusOr<ForestModel> Deserialize(const std::string& text);

  // File round-trip of Serialize/Deserialize.
  Status Save(const std::string& path) const;
  static StatusOr<ForestModel> Load(const std::string& path);

 private:
  ForestModel(std::shared_ptr<const std::vector<Model>> trees,
              ForestVote vote, ModelKind kind)
      : trees_(std::move(trees)), vote_(vote), kind_(kind) {}

  std::shared_ptr<const std::vector<Model>> trees_;
  ForestVote vote_ = ForestVote::kAverage;
  ModelKind kind_ = ModelKind::kUdt;
};

// Builds ForestModels from uncertain data sets under a fixed config.
class ForestTrainer {
 public:
  ForestTrainer() = default;
  explicit ForestTrainer(ForestConfig config) : config_(std::move(config)) {}

  const ForestConfig& config() const { return config_; }
  ForestConfig& mutable_config() { return config_; }

  // Forest-level training parallelism; returns *this for chaining.
  ForestTrainer& SetNumThreads(int num_threads) {
    config_.num_threads = num_threads;
    return *this;
  }

  // The unified entry point: trains one forest as described by `request`
  // (api/train_request.h). Averaging forests reduce the data to pdf means
  // once and grow classical trees over the bags, exactly like
  // Trainer::Train does for one tree. Honoured request fields beyond the
  // source: `num_threads` overrides the forest-level thread count, `seed`
  // overrides ForestConfig::seed (bags + subspaces), `warm_start` /
  // `warm_trees` carry incumbent trees into the new ensemble (fresh trees
  // keep their by-index bags/subspace streams, so a warm-started forest's
  // fresh tree t is bitwise-identical to cold tree t), `oob` receives the
  // out-of-bag estimate over the freshly trained trees when bootstrap is
  // on (reset to the zero-coverage NaN sentinel otherwise), and `stats`
  // accumulates the fresh trees' BuildStats in tree order. Weighted
  // requests are rejected — bags own the forest's tuple weighting. Fails
  // on an empty data set or invalid config/request.
  [[nodiscard]] StatusOr<ForestModel> Train(const TrainRequest& request) const;

  // Shorthand for the common distribution-based case.
  StatusOr<ForestModel> TrainUdt(const Dataset& train,
                                 OobEstimate* oob = nullptr,
                                 BuildStats* stats = nullptr) const {
    TrainRequest request = TrainRequest::For(train, ModelKind::kUdt);
    request.oob = oob;
    request.stats = stats;
    return Train(request);
  }

  // Shorthand for the averaging baseline.
  StatusOr<ForestModel> TrainAveraging(const Dataset& train,
                                       OobEstimate* oob = nullptr,
                                       BuildStats* stats = nullptr) const {
    TrainRequest request = TrainRequest::For(train, ModelKind::kAveraging);
    request.oob = oob;
    request.stats = stats;
    return Train(request);
  }

 private:
  ForestConfig config_;
};

// The bootstrap bag of tree `tree_index` in a forest run: one multiplicity
// per tuple (N draws with replacement), a pure function of (seed,
// tree_index, num_tuples). Exposed so out-of-bag tooling and tests can
// reproduce the trainer's bags exactly.
std::vector<double> ForestBootstrapBag(uint64_t seed, int tree_index,
                                       int num_tuples);

// Accumulates one tree's class distribution into `accumulator` under
// `vote` — the shared aggregation step of the pointer and compiled
// serving paths (tree order + one final division keeps them bitwise
// aligned). `tree_distribution` holds num_classes doubles.
void AccumulateForestVote(ForestVote vote, const double* tree_distribution,
                          int num_classes, double* accumulator);

}  // namespace udt

#endif  // UDT_API_FOREST_H_
