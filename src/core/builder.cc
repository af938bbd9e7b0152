// The construction scheduler. Per-node work (statistics, split search,
// partitioning) lives in core/node_build.cc; this file decides *where*
// each node is built:
//
//   num_threads == 1  - the classical depth-first recursion.
//   num_threads != 1  - a work-stealing task pool. Every subtree whose
//     working set is large enough becomes a pool task that writes its
//     result into a dedicated child slot of the already-allocated parent
//     node; large nodes additionally fan their per-attribute split scans
//     out as subtasks of the same pool.
//
// Both paths execute the same per-node function with the same fixed
// accumulation and tie-break order, so the resulting tree is
// bitwise-identical for every thread count (tests/builder_determinism_test
// serialises and compares the bytes).

#include "core/builder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/task_pool.h"
#include "common/timer.h"
#include "core/node_build.h"
#include "split/attribute_scan.h"
#include "split/fractional_tuple.h"
#include "tree/post_prune.h"

namespace udt {

namespace {

// Subtrees below this many fractional tuples are built inline by whichever
// worker holds them: the task-queue overhead would outweigh the work.
constexpr size_t kMinTuplesForSubtreeTask = 48;

// Nodes with at least this many fractional tuples also parallelise their
// per-attribute split scans. Near the root the node queue holds a single
// task, so attribute-level parallelism is what keeps the pool busy there.
constexpr size_t kMinTuplesForParallelScan = 64;

// Construction state shared across one Build call.
struct BuildContext {
  NodeBuildContext node;
  // Parallel mode only; both null in the serial recursion.
  TaskPool* pool = nullptr;
  Mutex* stats_mu = nullptr;
  // Serial mode: the caller's stats, owned exclusively. Parallel mode:
  // the shared total, guarded by stats_mu (tasks accumulate locally and
  // merge once on completion).
  BuildStats* stats = nullptr;
};

void MergeStats(const BuildContext& ctx, const BuildStats& local) {
  MutexLock lock(ctx.stats_mu);
  *ctx.stats += local;
}

// Depth-first recursion; `used_categorical` is mutated-and-restored along
// the path. Also the inline fallback inside pool tasks for small subtrees
// (with `scan_pool` null: small sets never fan out their scans).
std::unique_ptr<TreeNode> BuildSerial(const BuildContext& ctx,
                                      const WorkingSet& set, int depth,
                                      std::vector<bool>* used_categorical,
                                      uint64_t token, BuildStats* stats) {
  NodeDecision decision =
      DecideNode(ctx.node, set, depth, *used_categorical, token,
                 /*scan_pool=*/nullptr, stats);
  switch (decision.kind) {
    case NodeDecision::Kind::kLeaf:
      break;
    case NodeDecision::Kind::kNumerical:
      decision.node->left =
          BuildSerial(ctx, decision.left, depth + 1, used_categorical,
                      ChildNodeToken(token, 0), stats);
      decision.node->right =
          BuildSerial(ctx, decision.right, depth + 1, used_categorical,
                      ChildNodeToken(token, 1), stats);
      break;
    case NodeDecision::Kind::kCategorical: {
      size_t attr = static_cast<size_t>(decision.categorical_attribute);
      (*used_categorical)[attr] = true;
      decision.node->children.reserve(decision.buckets.size());
      for (size_t b = 0; b < decision.buckets.size(); ++b) {
        WorkingSet& bucket = decision.buckets[b];
        decision.node->children.push_back(
            bucket.empty()
                ? MakeFallbackLeaf(decision.node->class_counts, stats)
                : BuildSerial(ctx, bucket, depth + 1, used_categorical,
                              ChildNodeToken(token, static_cast<int>(b)),
                              stats));
      }
      (*used_categorical)[attr] = false;
      break;
    }
  }
  return std::move(decision.node);
}

// One queued subtree: build the tree hanging off `slot`.
struct SubtreeJob {
  WorkingSet set;
  int depth = 0;
  // Snapshot of the ancestors' categorical usage; parallel subtrees cannot
  // share the backtracking vector of the serial recursion.
  std::vector<bool> used_categorical;
  // The node's path token (see ChildNodeToken) — carried with the job so
  // subspace sampling is independent of which worker builds the subtree.
  uint64_t token = kRootNodeToken;
  std::unique_ptr<TreeNode>* slot = nullptr;
};

void ScheduleSubtree(const BuildContext& ctx, SubtreeJob job,
                     TaskGroup* group);

void RunSubtreeTask(const BuildContext& ctx, SubtreeJob job,
                    TaskGroup* group) {
  BuildStats local;
  TaskPool* scan_pool =
      job.set.size() >= kMinTuplesForParallelScan ? ctx.pool : nullptr;
  NodeDecision decision =
      DecideNode(ctx.node, job.set, job.depth, job.used_categorical,
                 job.token, scan_pool, &local);
  // Free the parent's working set before the children are queued.
  job.set.clear();
  job.set.shrink_to_fit();

  TreeNode* node = decision.node.get();
  *job.slot = std::move(decision.node);
  switch (decision.kind) {
    case NodeDecision::Kind::kLeaf:
      break;
    case NodeDecision::Kind::kNumerical:
      ScheduleSubtree(ctx,
                      SubtreeJob{std::move(decision.left), job.depth + 1,
                                 job.used_categorical,
                                 ChildNodeToken(job.token, 0), &node->left},
                      group);
      ScheduleSubtree(ctx,
                      SubtreeJob{std::move(decision.right), job.depth + 1,
                                 std::move(job.used_categorical),
                                 ChildNodeToken(job.token, 1), &node->right},
                      group);
      break;
    case NodeDecision::Kind::kCategorical: {
      job.used_categorical[static_cast<size_t>(
          decision.categorical_attribute)] = true;
      node->children.resize(decision.buckets.size());
      for (size_t b = 0; b < decision.buckets.size(); ++b) {
        if (decision.buckets[b].empty()) {
          node->children[b] = MakeFallbackLeaf(node->class_counts, &local);
        } else {
          ScheduleSubtree(
              ctx,
              SubtreeJob{std::move(decision.buckets[b]), job.depth + 1,
                         job.used_categorical,
                         ChildNodeToken(job.token, static_cast<int>(b)),
                         &node->children[b]},
              group);
        }
      }
      break;
    }
  }
  MergeStats(ctx, local);
}

void ScheduleSubtree(const BuildContext& ctx, SubtreeJob job,
                     TaskGroup* group) {
  // Small subtrees are built inline right here: queueing them would cost
  // more (allocations + pool lock round-trips) than the work itself.
  if (job.set.size() < kMinTuplesForSubtreeTask) {
    BuildStats local;
    *job.slot = BuildSerial(ctx, job.set, job.depth, &job.used_categorical,
                            job.token, &local);
    MergeStats(ctx, local);
    return;
  }
  // std::function must be copyable; park the move-only job behind a
  // shared_ptr.
  auto shared_job = std::make_shared<SubtreeJob>(std::move(job));
  ctx.pool->Submit(group, [&ctx, shared_job, group] {
    RunSubtreeTask(ctx, std::move(*shared_job), group);
  });
}

}  // namespace

TreeBuilder::TreeBuilder(TreeConfig config) : config_(std::move(config)) {}

StatusOr<DecisionTree> TreeBuilder::Build(const Dataset& train,
                                          BuildStats* stats,
                                          const PresortedAxes* axes) const {
  UDT_RETURN_NOT_OK(config_.Validate());
  if (train.empty()) {
    return Status::InvalidArgument("cannot build a tree on an empty data set");
  }
  if (axes != nullptr) UDT_RETURN_NOT_OK(axes->CheckShape(train));
  return BuildFromRoot(train, MakeRootWorkingSet(train), axes, stats);
}

StatusOr<DecisionTree> TreeBuilder::BuildWeighted(
    const Dataset& train, const std::vector<double>& weights,
    BuildStats* stats, const PresortedAxes* axes) const {
  UDT_RETURN_NOT_OK(config_.Validate());
  if (train.empty()) {
    return Status::InvalidArgument("cannot build a tree on an empty data set");
  }
  if (weights.size() != static_cast<size_t>(train.num_tuples())) {
    return Status::InvalidArgument("need exactly one weight per tuple");
  }
  bool any_positive = false;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument("weights must be finite and >= 0");
    }
    any_positive |= w > 0.0;
  }
  if (!any_positive) {
    return Status::InvalidArgument("at least one weight must be positive");
  }
  if (axes != nullptr) UDT_RETURN_NOT_OK(axes->CheckShape(train));
  return BuildFromRoot(train, MakeWeightedRootWorkingSet(train, weights),
                       axes, stats);
}

StatusOr<DecisionTree> TreeBuilder::BuildFromRoot(const Dataset& train,
                                                  WorkingSet root_set,
                                                  const PresortedAxes* axes,
                                                  BuildStats* stats) const {
  BuildStats local_stats;
  BuildContext ctx;
  ctx.node.data = &train;
  ctx.node.config = &config_;
  std::unique_ptr<SplitFinder> finder = MakeSplitFinder(config_.algorithm);
  ctx.node.finder = finder.get();
  ctx.node.split_options = config_.split_options;
  ctx.node.split_options.measure = config_.measure;
  ctx.stats = stats != nullptr ? stats : &local_stats;

  WallTimer timer;
  std::vector<bool> used_categorical(
      static_cast<size_t>(train.num_attributes()), false);

  const int concurrency =
      TaskPool::EffectiveConcurrency(config_.num_threads);
  std::unique_ptr<TreeNode> root;
  // Unless the caller already has, every numerical attribute is sorted
  // once, here (one pool task per attribute in parallel mode); each
  // node's scans then gather their points from the sorted axes.
  PresortedAxes own_axes;
  double presort_seconds = 0.0;
  auto presorted = [&](TaskPool* pool) {
    if (axes == nullptr) {
      WallTimer presort_timer;
      own_axes = PresortedAxes::Build(train, pool);
      presort_seconds = presort_timer.ElapsedSeconds();
      axes = &own_axes;
    }
    return axes;
  };
  if (concurrency <= 1) {
    ctx.node.axes = presorted(/*pool=*/nullptr);
    root = BuildSerial(ctx, root_set, /*depth=*/0, &used_categorical,
                       kRootNodeToken, ctx.stats);
  } else {
    // The calling thread participates via Wait, so spawn one fewer worker
    // than the requested concurrency.
    TaskPool pool(concurrency - 1);
    ctx.node.axes = presorted(&pool);
    Mutex stats_mu;
    ctx.pool = &pool;
    ctx.stats_mu = &stats_mu;
    TaskGroup group;
    ScheduleSubtree(ctx,
                    SubtreeJob{std::move(root_set), /*depth=*/0,
                               std::move(used_categorical), kRootNodeToken,
                               &root},
                    &group);
    pool.Wait(&group);
  }

  DecisionTree tree(train.schema(), std::move(root));
  if (config_.post_prune) {
    PostPruneOptions prune_options;
    prune_options.confidence = config_.pruning_confidence;
    PostPruneStats prune_stats = PostPruneTree(&tree, prune_options);
    ctx.stats->subtrees_collapsed = prune_stats.subtrees_collapsed;
  }
  ctx.stats->build_seconds = timer.ElapsedSeconds();
  ctx.stats->presort_seconds = presort_seconds;
  return tree;
}

}  // namespace udt
