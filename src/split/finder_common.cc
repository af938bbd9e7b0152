#include "split/finder_common.h"

#include <algorithm>

#include "common/logging.h"
#include "split/percentile_endpoints.h"

namespace udt {
namespace split_internal {

AttributeContext BuildContextForAttribute(const Dataset& data,
                                          const WorkingSet& set,
                                          int attribute,
                                          const PresortedAxes* axes,
                                          const SplitOptions& options,
                                          int num_classes,
                                          EvalBuffers* buffers) {
  AttributeContext ctx;
  ctx.attribute = attribute;
  if (data.schema().attribute(attribute).kind != AttributeKind::kNumerical) {
    return ctx;  // empty scan: caller skips it
  }
  ctx.scan = axes != nullptr
                 ? AttributeScan::Build(data, set, attribute,
                                        axes->axis(attribute), num_classes,
                                        &buffers->scan)
                 : AttributeScan::Build(data, set, attribute, num_classes);
  if (ctx.scan.num_positions() < 2) {
    ctx.scan = AttributeScan();  // no valid binary split
    return ctx;
  }
  if (options.use_percentile_endpoints) {
    ctx.endpoints =
        ComputePercentileEndpoints(ctx.scan, options.percentiles_per_class);
    ctx.intervals = SegmentIntoIntervals(ctx.scan, ctx.endpoints);
    // Percentile pseudo-end-points are not true support boundaries, so
    // Theorems 1/2 do not apply; force bounding for every interval.
    for (EndpointInterval& interval : ctx.intervals) {
      interval.kind = IntervalKind::kHeterogeneous;
    }
  } else {
    ctx.endpoints = ctx.scan.endpoint_positions();
    ctx.intervals = SegmentIntoIntervals(ctx.scan, ctx.endpoints);
  }
  return ctx;
}

void EvaluatePosition(const AttributeContext& ctx, int idx,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers) {
  const AttributeScan& scan = ctx.scan;
  scan.LeftCounts(idx, &buffers->left);
  double left_mass = 0.0;
  for (double v : buffers->left) left_mass += v;
  double right_mass = scan.total_mass() - left_mass;
  if (left_mass < options.min_side_mass || right_mass < options.min_side_mass) {
    return;  // degenerate split; not a candidate
  }
  scan.RightCounts(idx, &buffers->right);
  double score = scorer.Score(buffers->left, buffers->right);
  if (counters != nullptr) ++counters->dispersion_evaluations;

  SplitCandidate candidate;
  candidate.valid = true;
  candidate.attribute = ctx.attribute;
  candidate.split_point = scan.x(idx);
  candidate.score = score;
  if (!best->valid || candidate.BetterThan(*best)) *best = candidate;
}

void EvaluateInterior(const AttributeContext& ctx, int a_idx, int b_idx,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers) {
  for (int idx = a_idx + 1; idx < b_idx; ++idx) {
    EvaluatePosition(ctx, idx, scorer, options, best, counters, buffers);
  }
}

double IntervalBound(const AttributeContext& ctx, int a_idx, int b_idx,
                     const SplitScorer& scorer, SplitCounters* counters,
                     EvalBuffers* buffers) {
  ctx.scan.IntervalStats(a_idx, b_idx, &buffers->stats.nc,
                         &buffers->stats.kc, &buffers->stats.mc);
  if (counters != nullptr) ++counters->bound_evaluations;
  return ScoreLowerBound(scorer, buffers->stats);
}

bool PruneByKind(const EndpointInterval& interval, const SplitScorer& scorer,
                 SplitCounters* counters) {
  if (interval.kind == IntervalKind::kEmpty) {
    if (counters != nullptr) {
      ++counters->intervals_pruned_empty;
      counters->candidates_pruned += interval.num_interior();
    }
    return true;
  }
  if (interval.kind == IntervalKind::kHomogeneous &&
      scorer.SupportsHomogeneousPruning()) {
    if (counters != nullptr) {
      ++counters->intervals_pruned_homogeneous;
      counters->candidates_pruned += interval.num_interior();
    }
    return true;
  }
  return false;
}

void ProcessInterval(const AttributeContext& ctx,
                     const EndpointInterval& interval,
                     const SplitScorer& scorer, const SplitOptions& options,
                     SplitCandidate* best, SplitCounters* counters,
                     EvalBuffers* buffers) {
  if (counters != nullptr) ++counters->intervals_total;
  if (interval.num_interior() <= 0) return;
  if (PruneByKind(interval, scorer, counters)) return;

  double bound = IntervalBound(ctx, interval.a_idx, interval.b_idx, scorer,
                               counters, buffers);
  if (best->valid && bound >= best->score - kPruneSlack) {
    if (counters != nullptr) {
      ++counters->intervals_pruned_by_bound;
      counters->candidates_pruned += interval.num_interior();
    }
    return;
  }
  EvaluateInterior(ctx, interval.a_idx, interval.b_idx, scorer, options, best,
                   counters, buffers);
}

}  // namespace split_internal
}  // namespace udt
