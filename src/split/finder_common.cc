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
  const int nc = ctx.scan.num_classes();
  if (options.use_percentile_endpoints) {
    ctx.endpoints =
        ComputePercentileEndpoints(ctx.scan, options.percentiles_per_class);
    ctx.percentile_rows = ctx.scan.RowsAt(ctx.endpoints);
    ctx.intervals =
        SegmentIntoIntervals(ctx.endpoints, ctx.percentile_rows.data(), nc);
    // Percentile pseudo-end-points are not true support boundaries, so
    // Theorems 1/2 do not apply; force bounding for every interval.
    for (EndpointInterval& interval : ctx.intervals) {
      interval.kind = IntervalKind::kHeterogeneous;
    }
  } else {
    ctx.endpoints = ctx.scan.endpoint_positions();
    ctx.intervals =
        SegmentIntoIntervals(ctx.endpoints, ctx.scan.EndpointRow(0), nc);
  }
  return ctx;
}

void EvaluateEndpoint(const AttributeContext& ctx, size_t e,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers) {
  const double* row = ctx.EndpointRow(e);
  buffers->left.assign(row, row + ctx.scan.num_classes());
  EvaluateRow(ctx, ctx.endpoints[e], scorer, options, best, counters,
              buffers);
}

void EvaluateRow(const AttributeContext& ctx, int idx,
                 const SplitScorer& scorer, const SplitOptions& options,
                 SplitCandidate* best, SplitCounters* counters,
                 EvalBuffers* buffers) {
  const AttributeScan& scan = ctx.scan;
  double left_mass = 0.0;
  for (double v : buffers->left) left_mass += v;
  double right_mass = scan.total_mass() - left_mass;
  if (left_mass < options.min_side_mass || right_mass < options.min_side_mass) {
    return;  // degenerate split; not a candidate
  }
  const std::vector<double>& totals = scan.class_totals();
  buffers->right.resize(totals.size());
  for (size_t c = 0; c < totals.size(); ++c) {
    double v = totals[c] - buffers->left[c];
    buffers->right[c] = v > 0.0 ? v : 0.0;
  }
  double score = scorer.Score(buffers->left, buffers->right);
  if (counters != nullptr) ++counters->dispersion_evaluations;

  SplitCandidate candidate;
  candidate.valid = true;
  candidate.attribute = ctx.attribute;
  candidate.split_point = scan.x(idx);
  candidate.score = score;
  if (!best->valid || candidate.BetterThan(*best)) *best = candidate;
}

void EvaluateInterior(const AttributeContext& ctx, size_t ea, size_t eb,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers) {
  const double* row = ctx.EndpointRow(ea);
  buffers->left.assign(row, row + ctx.scan.num_classes());
  for (int idx = ctx.endpoints[ea] + 1; idx < ctx.endpoints[eb]; ++idx) {
    ctx.scan.AccumulatePosition(idx, buffers->left.data());
    EvaluateRow(ctx, idx, scorer, options, best, counters, buffers);
  }
}

double IntervalBound(const AttributeContext& ctx, size_t ea, size_t eb,
                     const SplitScorer& scorer, SplitCounters* counters,
                     EvalBuffers* buffers) {
  ctx.scan.IntervalStatsFromRows(ctx.EndpointRow(ea), ctx.EndpointRow(eb),
                                 &buffers->stats.nc, &buffers->stats.kc,
                                 &buffers->stats.mc);
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

void ProcessInterval(const AttributeContext& ctx, size_t e,
                     const SplitScorer& scorer, const SplitOptions& options,
                     SplitCandidate* best, SplitCounters* counters,
                     EvalBuffers* buffers) {
  const EndpointInterval& interval = ctx.intervals[e];
  if (counters != nullptr) ++counters->intervals_total;
  if (interval.num_interior() <= 0) return;
  if (PruneByKind(interval, scorer, counters)) return;

  double bound = IntervalBound(ctx, e, e + 1, scorer, counters, buffers);
  if (best->valid && bound >= best->score - kPruneSlack) {
    if (counters != nullptr) {
      ++counters->intervals_pruned_by_bound;
      counters->candidates_pruned += interval.num_interior();
    }
    return;
  }
  EvaluateInterior(ctx, e, e + 1, scorer, options, best, counters, buffers);
}

}  // namespace split_internal
}  // namespace udt
