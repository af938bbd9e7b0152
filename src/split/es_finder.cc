// UDT-ES, End-point Sampling (Section 5.3, Fig 5): like UDT-GP, but the
// pruning threshold is seeded from a sample (default 10%) of the end
// points. Consecutive sampled end points define coarse intervals - the
// concatenations of row 5 of Fig 5 - which are bounded first; only inside
// surviving coarse intervals are the original end points brought back
// (row 7-8) and the fine intervals processed as in UDT-GP. Pruning a
// coarse interval removes its unsampled end points and all interior
// candidates with a single bound computation.
//
// Phase structure for the parallel engine: SeedAttribute scores one
// attribute's sampled end points, the engine merges the global threshold,
// and SearchAttribute re-derives the (deterministic) sample to process the
// coarse intervals against a locally-tightened copy of the threshold.

#include <algorithm>
#include <cmath>

#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {
namespace split_internal {

namespace {

// Deterministic every-k-th sample of the end-point *indices* (not
// positions), always keeping the first and last so the coarse intervals
// tile the whole axis. Returns indices into `endpoints`.
std::vector<int> SampleEndpointIndices(int num_endpoints, double rate) {
  std::vector<int> picked;
  if (num_endpoints <= 0) return picked;
  int stride = 1;
  if (rate > 0.0 && rate < 1.0) {
    stride = std::max(1, static_cast<int>(std::lround(1.0 / rate)));
  }
  for (int i = 0; i < num_endpoints; i += stride) picked.push_back(i);
  if (picked.back() != num_endpoints - 1) picked.push_back(num_endpoints - 1);
  return picked;
}

class EsFinder final : public SplitFinder {
 public:
  const char* name() const override { return "UDT-ES"; }

 protected:
  bool NeedsGlobalSeed() const override { return true; }

  SplitCandidate SeedAttribute(const AttributeContext& ctx,
                               const SplitScorer& scorer,
                               const SplitOptions& options,
                               SplitCounters* counters,
                               EvalBuffers* buffers) const override {
    SplitCandidate best;
    std::vector<int> picks = SampleEndpointIndices(
        static_cast<int>(ctx.endpoints.size()),
        options.es_endpoint_sample_rate);
    for (int ei : picks) {
      EvaluateEndpoint(ctx, static_cast<size_t>(ei), scorer, options, &best,
                       counters, buffers);
    }
    return best;
  }

  SplitCandidate SearchAttribute(const AttributeContext& ctx,
                                 const SplitScorer& scorer,
                                 const SplitOptions& options,
                                 const SplitCandidate& seed,
                                 SplitCounters* counters,
                                 EvalBuffers* buffers) const override {
    SplitCandidate best = seed;  // sampled end points were scored in phase 1
    std::vector<int> picks = SampleEndpointIndices(
        static_cast<int>(ctx.endpoints.size()),
        options.es_endpoint_sample_rate);
    for (size_t s = 0; s + 1 < picks.size(); ++s) {
      int ei = picks[s];
      int ej = picks[s + 1];
      if (ej == ei + 1) {
        // Adjacent end points: this *is* a fine interval.
        ProcessInterval(ctx, static_cast<size_t>(ei), scorer, options, &best,
                        counters, buffers);
        continue;
      }
      int a_idx = ctx.endpoints[static_cast<size_t>(ei)];
      int b_idx = ctx.endpoints[static_cast<size_t>(ej)];
      if (counters != nullptr) ++counters->intervals_total;
      if (b_idx - a_idx <= 1) continue;  // no candidates strictly inside

      double bound =
          IntervalBound(ctx, static_cast<size_t>(ei), static_cast<size_t>(ej),
                        scorer, counters, buffers);
      if (best.valid && bound >= best.score - kPruneSlack) {
        // The whole coarse interval - unsampled end points included - is
        // pruned by one bound.
        if (counters != nullptr) {
          ++counters->intervals_pruned_by_bound;
          counters->candidates_pruned += b_idx - a_idx - 1;
        }
        continue;
      }

      // Refine: bring back the original end points inside (Fig 5 rows
      // 7-9), update the threshold, then process the fine intervals.
      for (int e = ei + 1; e < ej; ++e) {
        EvaluateEndpoint(ctx, static_cast<size_t>(e), scorer, options, &best,
                         counters, buffers);
      }
      for (int e = ei; e < ej; ++e) {
        ProcessInterval(ctx, static_cast<size_t>(e), scorer, options, &best,
                        counters, buffers);
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<SplitFinder> MakeEsFinder() {
  return std::make_unique<EsFinder>();
}

}  // namespace split_internal
}  // namespace udt
