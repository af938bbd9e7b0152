// UDT-LP, Local Pruning (Section 5.2): per attribute, the end-point
// entropies seed a pruning threshold H*_j; each heterogeneous interval is
// first lower-bounded (eq. 3) and its interior evaluated only if the bound
// beats the threshold. The threshold tightens as better candidates are
// found (a safe refinement of the paper's static threshold: the optimum is
// always retained in the candidate pool). The threshold is local by
// definition, so each attribute is an independent work unit.

#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {
namespace split_internal {

namespace {

class LpFinder final : public SplitFinder {
 public:
  const char* name() const override { return "UDT-LP"; }

 protected:
  SplitCandidate SearchAttribute(const AttributeContext& ctx,
                                 const SplitScorer& scorer,
                                 const SplitOptions& options,
                                 const SplitCandidate& /*seed*/,
                                 SplitCounters* counters,
                                 EvalBuffers* buffers) const override {
    // Local threshold: best candidate within this attribute only.
    SplitCandidate local;
    for (size_t e = 0; e < ctx.endpoints.size(); ++e) {
      EvaluateEndpoint(ctx, e, scorer, options, &local, counters, buffers);
    }
    for (size_t e = 0; e < ctx.intervals.size(); ++e) {
      ProcessInterval(ctx, e, scorer, options, &local, counters, buffers);
    }
    return local;
  }
};

}  // namespace

std::unique_ptr<SplitFinder> MakeLpFinder() {
  return std::make_unique<LpFinder>();
}

}  // namespace split_internal
}  // namespace udt
