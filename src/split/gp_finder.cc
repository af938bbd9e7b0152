// UDT-GP, Global Pruning (Section 5.2): first the end points of *all*
// attributes are evaluated, and the global minimum seeds one shared pruning
// threshold; then every heterogeneous interval of every attribute is
// bounded against it. A single strong threshold prunes far more than the
// per-attribute thresholds of UDT-LP.
//
// Phase structure for the parallel engine: SeedAttribute sweeps one
// attribute's end points; the engine merges the sweeps into the global
// threshold in attribute order; SearchAttribute then bounds-and-refines
// the attribute's intervals against a local copy of that threshold
// (tightened only by candidates found within the attribute, which keeps
// each attribute a pure, schedule-independent work unit — the pruning
// stays safe because the threshold only ever holds evaluated candidates).

#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {
namespace split_internal {

namespace {

class GpFinder final : public SplitFinder {
 public:
  const char* name() const override { return "UDT-GP"; }

 protected:
  bool NeedsGlobalSeed() const override { return true; }

  SplitCandidate SeedAttribute(const AttributeContext& ctx,
                               const SplitScorer& scorer,
                               const SplitOptions& options,
                               SplitCounters* counters,
                               EvalBuffers* buffers) const override {
    SplitCandidate best;
    for (size_t e = 0; e < ctx.endpoints.size(); ++e) {
      EvaluateEndpoint(ctx, e, scorer, options, &best, counters, buffers);
    }
    return best;
  }

  SplitCandidate SearchAttribute(const AttributeContext& ctx,
                                 const SplitScorer& scorer,
                                 const SplitOptions& options,
                                 const SplitCandidate& seed,
                                 SplitCounters* counters,
                                 EvalBuffers* buffers) const override {
    SplitCandidate best = seed;  // the end points were scored in phase 1
    for (size_t e = 0; e < ctx.intervals.size(); ++e) {
      ProcessInterval(ctx, e, scorer, options, &best, counters, buffers);
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<SplitFinder> MakeGpFinder() {
  return std::make_unique<GpFinder>();
}

}  // namespace split_internal
}  // namespace udt
