// Checks the benchmark's own arithmetic (src/stats.h, src/trace.h):
// nearest-rank percentiles, span self time, the warm-up rule and the bases
// of split.pruned_frac and failed_frac. Exits non-zero on the first
// failure; perfbench/run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void Near(double got, double want, const char* what) {
  Expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)), what);
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: sorted[ceil(q/100 * n) - 1], input order irrelevant.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Near(Percentile(ten, 50), 5, "p50 of 1..10 is 5 (rank 5)");
  Near(Percentile(ten, 90), 9, "p90 of 1..10 is 9 (rank 9)");
  Near(Percentile(ten, 91), 10, "p91 of 1..10 rounds the rank up to 10");
  Near(Percentile(ten, 100), 10, "p100 is the maximum");
  Near(Percentile(ten, 1), 1, "p1 of 10 samples is the minimum");
  Near(Percentile({42}, 99), 42, "any percentile of one sample");
  Near(Median({3, 1, 2, 4}), 2, "median of an even count is the lower middle");
  Expect(std::isnan(Percentile({}, 50)), "empty sample has no percentile");

  // Self time: duration minus the union of children clipped to the span.
  Expect(SelfTime(0, 100, {}) == 100, "no children: all self");
  Expect(SelfTime(0, 100, {{10, 20}, {30, 50}}) == 70, "disjoint children");
  Expect(SelfTime(0, 100, {{10, 40}, {30, 50}}) == 60,
         "overlapping children are counted once");
  Expect(SelfTime(0, 100, {{30, 50}, {10, 40}}) == 60,
         "child order does not matter");
  Expect(SelfTime(0, 100, {{-20, 10}, {90, 130}}) == 80,
         "children sticking out are clipped to the parent");
  Expect(SelfTime(0, 100, {{0, 100}}) == 0, "fully covered parent");
  Expect(SelfTime(0, 100, {{20, 30}, {22, 25}}) == 90, "nested children");

  // The tracer's per-name totals use the same rule.
  Tracer tracer(true);
  const int64_t root = tracer.Record("root", 7, -1, 0, 1000);
  tracer.Record("child", 7, root, 100, 400);
  tracer.Record("child", 7, root, 300, 600);
  const auto totals = tracer.Totals();
  Expect(totals.at("root").total_ns == 1000, "root duration");
  Expect(totals.at("root").self_ns == 500, "root self = 1000 - [100,600)");
  Expect(totals.at("child").count == 2 && totals.at("child").self_ns == 600,
         "leaf spans are all self");
  Tracer off(false);
  Expect(off.Record("x", 0, -1, 0, 1) == -1 && off.Totals().empty(),
         "a disabled tracer records nothing");

  // Ratio bases.
  Near(PrunedFraction(30, 10), 0.75,
       "pruned_frac = pruned / (pruned + scored)");
  Expect(std::isnan(PrunedFraction(0, 0)), "pruned_frac without candidates");
  Near(FailedFraction(3, 1000), 0.003, "failed_frac = failed / attempted");
  Near(FailedFraction(0, 5), 0.0, "no failures");
  Expect(std::isnan(FailedFraction(0, 0)), "failed_frac without attempts");

  // Warm-up: steady once the moving mean is within the delta of the newest
  // sample, and never before min_samples.
  SteadyDetector warm(3, 0.05, 5);
  Expect(!warm.Add(100) && !warm.Add(50) && !warm.Add(20),
         "filling the window is never steady");
  Expect(!warm.Add(20), "mean 56.7 vs 20 is not steady");
  Expect(!warm.Add(20), "mean 30 vs 20 is not steady");
  Expect(warm.Add(20), "mean 20 vs 20 is steady after 6 samples");
  SteadyDetector early(2, 0.5, 10);
  bool any = false;
  for (int i = 0; i < 9; ++i) any = any || early.Add(1.0);
  Expect(!any, "min_samples holds back a flat signal");
  Expect(early.Add(1.0), "the 10th flat sample is steady");

  if (failures == 0) std::printf("perfbench arithmetic: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
