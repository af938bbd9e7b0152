#include "core/node_build.h"

#include <utility>

#include "common/logging.h"
#include "common/math.h"
#include "core/builder.h"
#include "split/categorical.h"
#include "split/fractional_tuple.h"

namespace udt {

namespace {

bool IsPure(const std::vector<double>& counts) {
  int with_mass = 0;
  for (double c : counts) {
    if (c > kMassEpsilon) ++with_mass;
  }
  return with_mass <= 1;
}

void FillNodeStatistics(TreeNode* node, std::vector<double> counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  node->distribution.assign(counts.size(), 0.0);
  if (total > 0.0) {
    for (size_t c = 0; c < counts.size(); ++c) {
      node->distribution[c] = counts[c] / total;
    }
  } else {
    for (double& d : node->distribution) {
      d = 1.0 / static_cast<double>(node->distribution.size());
    }
  }
  node->class_counts = std::move(counts);
}

}  // namespace

uint64_t ChildNodeToken(uint64_t parent_token, int child_index) {
  // Multiply-then-mix keeps sibling tokens and cousin tokens decorrelated;
  // the odd multiplier makes (parent, index) -> pre-mix input injective.
  return SplitMix64(parent_token * 0x100000001B3ULL +
                    static_cast<uint64_t>(child_index) + 1);
}

std::vector<uint8_t> SampleAttributeSubspace(uint64_t seed, uint64_t token,
                                             int num_attributes, int k) {
  UDT_DCHECK(k > 0 && k < num_attributes);
  // Partial Fisher-Yates over the attribute ids, driven by a SplitMix64
  // stream: pure function of (seed, token), no engine state to construct.
  uint64_t state = SplitMix64(seed ^ token);
  std::vector<int> order(static_cast<size_t>(num_attributes));
  for (int j = 0; j < num_attributes; ++j) order[static_cast<size_t>(j)] = j;
  std::vector<uint8_t> mask(static_cast<size_t>(num_attributes), 0);
  for (int i = 0; i < k; ++i) {
    state = SplitMix64(state);
    const int j =
        i + static_cast<int>(state % static_cast<uint64_t>(num_attributes - i));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    mask[static_cast<size_t>(order[static_cast<size_t>(i)])] = 1;
  }
  return mask;
}

std::unique_ptr<TreeNode> MakeFallbackLeaf(const std::vector<double>& counts,
                                           BuildStats* stats) {
  auto child = std::make_unique<TreeNode>();
  FillNodeStatistics(child.get(), counts);
  ++stats->nodes;
  ++stats->leaves;
  return child;
}

NodeDecision DecideNode(const NodeBuildContext& ctx, const WorkingSet& set,
                        int depth, const std::vector<bool>& used_categorical,
                        uint64_t node_token, TaskPool* scan_pool,
                        BuildStats* stats) {
  const Dataset& data = *ctx.data;
  const TreeConfig& config = *ctx.config;

  NodeDecision decision;
  decision.node = std::make_unique<TreeNode>();
  TreeNode* node = decision.node.get();

  std::vector<double> counts = ClassCounts(data, set, data.num_classes());
  double total = 0.0;
  for (double c : counts) total += c;
  FillNodeStatistics(node, counts);
  ++stats->nodes;

  // Stopping rules (pre-pruning).
  if (depth >= config.max_depth || total < config.min_split_weight ||
      IsPure(node->class_counts) || set.empty()) {
    ++stats->leaves;
    return decision;
  }

  SplitScorer scorer(config.measure, node->class_counts);

  // Random-subspace restriction: sample this node's attribute mask from
  // its (seed, token) stream — a pure function of the node's root path,
  // so the chosen subspace is schedule-independent.
  SplitOptions options = ctx.split_options;
  std::vector<uint8_t> subspace_mask;
  if (config.subspace_attributes > 0 &&
      config.subspace_attributes < data.num_attributes()) {
    subspace_mask =
        SampleAttributeSubspace(config.subspace_seed, node_token,
                                data.num_attributes(),
                                config.subspace_attributes);
    options.attribute_mask = &subspace_mask;
  }

  // Best numerical split; the per-attribute scans run as `scan_pool` tasks
  // when the scheduler hands one in.
  SplitCandidate best = ctx.finder->FindBestSplit(
      data, set, scorer, options, &stats->counters, scan_pool, ctx.axes);

  // Categorical candidates (Section 7.2); an attribute used by an ancestor
  // cannot yield further gain and is skipped.
  int best_categorical = -1;
  for (int j = 0; j < data.num_attributes(); ++j) {
    if (data.schema().attribute(j).kind != AttributeKind::kCategorical) {
      continue;
    }
    if (used_categorical[static_cast<size_t>(j)]) continue;
    if (!options.AttributeAllowed(j)) continue;
    CategoricalSplitResult result = EvaluateCategoricalSplit(
        data, set, j, scorer, options, &stats->counters);
    if (!result.valid) continue;
    SplitCandidate candidate;
    candidate.valid = true;
    candidate.attribute = j;
    candidate.split_point = 0.0;
    candidate.score = result.score;
    if (!best.valid || candidate.BetterThan(best)) {
      best = candidate;
      best_categorical = j;
    }
  }

  if (!best.valid || scorer.GainForScore(best.score) < config.min_gain) {
    ++stats->leaves;
    return decision;
  }

  if (best_categorical >= 0) {
    int num_categories =
        data.schema().attribute(best_categorical).num_categories;
    PartitionWorkingSetCategorical(data, set, best_categorical,
                                   num_categories, &decision.buckets);
    int populated = 0;
    for (const WorkingSet& bucket : decision.buckets) {
      if (!bucket.empty()) ++populated;
    }
    if (populated < 2) {  // degenerate in practice; make a leaf
      decision.buckets.clear();
      ++stats->leaves;
      return decision;
    }
    node->attribute = best_categorical;
    node->is_categorical = true;
    decision.kind = NodeDecision::Kind::kCategorical;
    decision.categorical_attribute = best_categorical;
    return decision;
  }

  PartitionWorkingSet(data, set, best.attribute, best.split_point,
                      &decision.left, &decision.right);
  if (decision.left.empty() || decision.right.empty()) {
    // Guarded against by min_side_mass, but weight drops of micro-fragments
    // can in principle empty a side; fall back to a leaf.
    decision.left.clear();
    decision.right.clear();
    ++stats->leaves;
    return decision;
  }

  node->attribute = best.attribute;
  node->is_categorical = false;
  node->split_point = best.split_point;
  decision.kind = NodeDecision::Kind::kNumerical;
  return decision;
}

}  // namespace udt
