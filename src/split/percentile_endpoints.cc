#include "split/percentile_endpoints.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math.h"

namespace udt {

std::vector<int> ComputePercentileEndpoints(const AttributeScan& scan,
                                            int percentiles_per_class) {
  UDT_CHECK(percentiles_per_class >= 1);
  std::vector<int> positions;
  if (scan.empty()) return positions;
  positions.push_back(0);
  positions.push_back(scan.num_positions() - 1);

  // Per class, the targets still to cross, ascending: percentile p of
  // class c is the smallest position whose cumulative class-c mass
  // reaches total_c * p / (P + 1). Cumulative masses only grow along the
  // axis, so one forward sweep meets every crossing in order; a target
  // never reached (by rounding) falls to the last position, listed above.
  const size_t nc = static_cast<size_t>(scan.num_classes());
  std::vector<int> next(nc, percentiles_per_class + 1);  // none left
  for (size_t c = 0; c < nc; ++c) {
    if (scan.class_totals()[c] > kMassEpsilon) next[c] = 1;
  }
  auto target = [&](size_t c) {
    return scan.class_totals()[c] * static_cast<double>(next[c]) /
           (percentiles_per_class + 1);
  };
  std::vector<double> row(scan.EndpointRow(0), scan.EndpointRow(0) + nc);
  for (int idx = 0; idx < scan.num_positions(); ++idx) {
    if (idx > 0) scan.AccumulatePosition(idx, row.data());
    for (size_t c = 0; c < nc; ++c) {
      while (next[c] <= percentiles_per_class && row[c] >= target(c)) {
        positions.push_back(idx);
        ++next[c];
      }
    }
  }

  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
}

}  // namespace udt
