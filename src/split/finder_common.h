// Internal machinery shared by the concrete split finders: per-attribute
// scan contexts, candidate evaluation, and interval bounding. Not part of
// the public API.
//
// Re-entrancy contract: everything here is a pure function of its inputs
// plus the caller-owned EvalBuffers scratch. The parallel engine gives
// every attribute task its own EvalBuffers (the per-worker context), so
// one finder instance can serve any number of concurrent searches.

#ifndef UDT_SPLIT_FINDER_COMMON_H_
#define UDT_SPLIT_FINDER_COMMON_H_

#include <vector>

#include "split/attribute_scan.h"
#include "split/bounds.h"
#include "split/dispersion.h"
#include "split/intervals.h"
#include "split/split_finder.h"

namespace udt {
namespace split_internal {

// Slack used when comparing a lower bound against the pruning threshold;
// compensates for the different rounding paths of bound and score.
inline constexpr double kPruneSlack = 1e-12;

// Everything a finder needs about one numerical attribute at one node.
struct AttributeContext {
  int attribute = -1;
  AttributeScan scan;
  // End-point positions (tuple support boundaries, or percentile
  // pseudo-end-points in Section 7.3 mode). Ascending; first == 0 and
  // last == scan.num_positions()-1.
  std::vector<int> endpoints;
  // In percentile mode, the cumulative rows at `endpoints`,
  // [end point][class]; empty otherwise, when the scan's own end-point
  // rows serve.
  std::vector<double> percentile_rows;
  // Intervals between consecutive end points: intervals[e] runs from
  // endpoints[e] to endpoints[e + 1].
  std::vector<EndpointInterval> intervals;

  // The cumulative row at endpoints[e], O(1).
  const double* EndpointRow(size_t e) const {
    return percentile_rows.empty()
               ? scan.EndpointRow(e)
               : percentile_rows.data() +
                     e * static_cast<size_t>(scan.num_classes());
  }
};

// Scratch buffers reused across scans and candidate evaluations. Each
// task owns one; nothing in it outlives a single call.
struct EvalBuffers {
  ScanScratch scan;
  std::vector<double> left;  // also the row a sweep carries
  std::vector<double> right;
  IntervalMassStats stats;
};

// Builds the context for one numerical attribute from the presorted
// `axes` (null: presort the attribute on the spot), using the scan
// scratch in `buffers`. Returns a context with an empty scan when the
// attribute admits no candidate (< 2 distinct positions) or is
// categorical. Honors the percentile-end-point option: in that mode every
// interval is conservatively classified heterogeneous (the concavity
// theorems assume true support boundaries).
AttributeContext BuildContextForAttribute(const Dataset& data,
                                          const WorkingSet& set,
                                          int attribute,
                                          const PresortedAxes* axes,
                                          const SplitOptions& options,
                                          int num_classes,
                                          EvalBuffers* buffers);

// Scores the split at end point `e` of `ctx` (position endpoints[e]) and
// merges it into `best`. Skips (without counting) candidates that leave
// either side with less than options.min_side_mass.
void EvaluateEndpoint(const AttributeContext& ctx, size_t e,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers);

// Scores the split at position `idx`, whose cumulative row the caller has
// put in buffers->left, and merges it into `best` as above.
void EvaluateRow(const AttributeContext& ctx, int idx,
                 const SplitScorer& scorer, const SplitOptions& options,
                 SplitCandidate* best, SplitCounters* counters,
                 EvalBuffers* buffers);

// Scores every interior position of the span from end point `ea` to end
// point `eb` (ea < eb), in one forward sweep from end point ea's row.
void EvaluateInterior(const AttributeContext& ctx, size_t ea, size_t eb,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers);

// Lower bound of the score over the interior of the span from end point
// `ea` to end point `eb`.
double IntervalBound(const AttributeContext& ctx, size_t ea, size_t eb,
                     const SplitScorer& scorer, SplitCounters* counters,
                     EvalBuffers* buffers);

// True if the interval's interior may be skipped outright under Theorem 1
// or Theorem 2 (measure permitting). Updates the pruning counters.
bool PruneByKind(const EndpointInterval& interval, const SplitScorer& scorer,
                 SplitCounters* counters);

// Processes interval `e` of ctx.intervals the GP/ES way: kind-prune,
// else bound against the current best, else evaluate the interior.
void ProcessInterval(const AttributeContext& ctx, size_t e,
                     const SplitScorer& scorer, const SplitOptions& options,
                     SplitCandidate* best, SplitCounters* counters,
                     EvalBuffers* buffers);

}  // namespace split_internal
}  // namespace udt

#endif  // UDT_SPLIT_FINDER_COMMON_H_
