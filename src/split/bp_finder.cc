// UDT-BP, Basic Pruning (Section 5.1): evaluates every end point, then
// skips the interiors of empty intervals (Theorem 1), homogeneous intervals
// (Theorem 2) and heterogeneous intervals whose class masses grow linearly
// (Theorem 3, the all-uniform-pdf case) - the latter two only when the
// measure is concave under the interval parameterisation (entropy/Gini).
// Remaining heterogeneous interiors are evaluated exhaustively. None of
// the pruning consults the running best, so the attributes are naturally
// independent and parallelise without any cross-attribute phase.

#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {
namespace split_internal {

namespace {

class BpFinder final : public SplitFinder {
 public:
  const char* name() const override { return "UDT-BP"; }

 protected:
  SplitCandidate SearchAttribute(const AttributeContext& ctx,
                                 const SplitScorer& scorer,
                                 const SplitOptions& options,
                                 const SplitCandidate& /*seed*/,
                                 SplitCounters* counters,
                                 EvalBuffers* buffers) const override {
    SplitCandidate best;
    for (size_t e = 0; e < ctx.endpoints.size(); ++e) {
      EvaluateEndpoint(ctx, e, scorer, options, &best, counters, buffers);
    }
    for (size_t e = 0; e < ctx.intervals.size(); ++e) {
      const EndpointInterval& interval = ctx.intervals[e];
      if (counters != nullptr) ++counters->intervals_total;
      if (interval.num_interior() <= 0) continue;
      if (PruneByKind(interval, scorer, counters)) continue;
      if (scorer.SupportsHomogeneousPruning() &&
          IntervalHasLinearGrowth(ctx.scan, interval.a_idx, interval.b_idx,
                                  ctx.EndpointRow(e),
                                  ctx.EndpointRow(e + 1))) {
        if (counters != nullptr) {
          ++counters->intervals_pruned_linear;
          counters->candidates_pruned += interval.num_interior();
        }
        continue;
      }
      EvaluateInterior(ctx, e, e + 1, scorer, options, &best, counters,
                       buffers);
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<SplitFinder> MakeBpFinder() {
  return std::make_unique<BpFinder>();
}

}  // namespace split_internal
}  // namespace udt
