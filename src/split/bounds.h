// Lower bounds on the best achievable split score inside an interval
// (Section 5.2, equation (3) for entropy; Section 7.4 for Gini and gain
// ratio). An interval whose bound is no better than the best score already
// found can be pruned wholesale without affecting the chosen split.

#ifndef UDT_SPLIT_BOUNDS_H_
#define UDT_SPLIT_BOUNDS_H_

#include <vector>

#include "split/dispersion.h"

namespace udt {

// Class-mass statistics of one interval (a, b], as produced by
// AttributeScan::IntervalStats or IntervalStatsFromRows:
//   nc[c] = mass of class c at or left of a,
//   kc[c] = mass of class c in (a, b],
//   mc[c] = mass of class c right of b.
struct IntervalMassStats {
  std::vector<double> nc;
  std::vector<double> kc;
  std::vector<double> mc;
};

// Equation (3): a lower bound of the weighted post-split entropy H(z, Aj)
// over every split point z interior to the interval. The bound follows
// from p(c|L) <= eta_c = (nc+kc)/(n+kc) and p(c|R) <= theta_c =
// (mc+kc)/(m+kc).
double EntropyLowerBound(const IntervalMassStats& stats);

// The Gini analogue of equation (3). The paper states eq. (4) for this
// purpose; the OCR of eq. (4) is ambiguous, so we use the direct analogue
// provable by the same argument (see DESIGN.md "Substitutions"):
//   L = 1 - (1/N) * sum_c [ nc*eta_c + mc*theta_c + kc*max(eta_c,theta_c) ].
double GiniLowerBound(const IntervalMassStats& stats);

// A lower bound for the configured measure's score (the value the finders
// minimise). For gain ratio the bound combines the entropy bound with the
// extremal split-info values (Section 7.4); it degenerates to -infinity
// (no pruning possible) when one side can be empty.
double ScoreLowerBound(const SplitScorer& scorer,
                       const IntervalMassStats& stats);

}  // namespace udt

#endif  // UDT_SPLIT_BOUNDS_H_
