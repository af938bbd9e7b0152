// Exhaustive split search (Section 4.2). Scores every distinct sample
// position of every attribute: the paper's k(ms-1) candidate sweep. Run on
// a means-reduced data set this is exactly the classical AVG search over
// k(m-1) candidates (Section 4.1), so the same implementation serves both
// names. Each attribute's sweep is self-contained, so the base-class
// engine can run the attributes as parallel tasks.

#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {
namespace split_internal {

namespace {

class ExhaustiveFinder final : public SplitFinder {
 public:
  explicit ExhaustiveFinder(const char* name) : name_(name) {}

  const char* name() const override { return name_; }

 protected:
  SplitCandidate SearchAttribute(const AttributeContext& ctx,
                                 const SplitScorer& scorer,
                                 const SplitOptions& options,
                                 const SplitCandidate& /*seed*/,
                                 SplitCounters* counters,
                                 EvalBuffers* buffers) const override {
    SplitCandidate best;
    // One forward sweep from the row at position 0 (always end point 0).
    // The last position puts everything left; EvaluateRow rejects it via
    // the min-side-mass check, so sweep all but the last.
    EvaluateEndpoint(ctx, 0, scorer, options, &best, counters, buffers);
    for (int idx = 1; idx + 1 < ctx.scan.num_positions(); ++idx) {
      ctx.scan.AccumulatePosition(idx, buffers->left.data());
      EvaluateRow(ctx, idx, scorer, options, &best, counters, buffers);
    }
    if (counters != nullptr) {
      counters->intervals_total += static_cast<int64_t>(ctx.intervals.size());
    }
    return best;
  }

 private:
  const char* name_;
};

}  // namespace

std::unique_ptr<SplitFinder> MakeExhaustiveFinder(const char* name) {
  return std::make_unique<ExhaustiveFinder>(name);
}

}  // namespace split_internal
}  // namespace udt
