#include "split/intervals.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/math.h"

namespace udt {

const char* IntervalKindToString(IntervalKind kind) {
  switch (kind) {
    case IntervalKind::kEmpty:
      return "empty";
    case IntervalKind::kHomogeneous:
      return "homogeneous";
    case IntervalKind::kHeterogeneous:
      return "heterogeneous";
  }
  return "unknown";
}

IntervalKind ClassifyInterval(const AttributeScan& scan, int a_idx,
                              int b_idx) {
  std::vector<double> row_a;
  std::vector<double> row_b;
  scan.LeftCounts(a_idx, &row_a);
  scan.LeftCounts(b_idx, &row_b);
  return ClassifyInterval(row_a.data(), row_b.data(), scan.num_classes());
}

IntervalKind ClassifyInterval(const double* row_a, const double* row_b,
                              int num_classes) {
  int classes_with_mass = 0;
  for (size_t c = 0; c < static_cast<size_t>(num_classes); ++c) {
    double k = row_b[c] - row_a[c];
    if (k > kMassEpsilon) ++classes_with_mass;
  }
  if (classes_with_mass == 0) return IntervalKind::kEmpty;
  if (classes_with_mass == 1) return IntervalKind::kHomogeneous;
  return IntervalKind::kHeterogeneous;
}

bool IntervalHasLinearGrowth(const AttributeScan& scan, int a_idx,
                             int b_idx) {
  std::vector<double> row_a;
  std::vector<double> row_b;
  scan.LeftCounts(a_idx, &row_a);
  scan.LeftCounts(b_idx, &row_b);
  return IntervalHasLinearGrowth(scan, a_idx, b_idx, row_a.data(),
                                 row_b.data());
}

bool IntervalHasLinearGrowth(const AttributeScan& scan, int a_idx, int b_idx,
                             const double* row_a, const double* row_b) {
  UDT_DCHECK(a_idx < b_idx);
  double x_a = scan.x(a_idx);
  double x_b = scan.x(b_idx);
  double span = x_b - x_a;
  if (span <= 0.0) return false;

  const size_t num_classes = static_cast<size_t>(scan.num_classes());
  // Per-class slope implied by the interval totals: kc / span.
  std::vector<double> slope(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    slope[c] = (row_b[c] - row_a[c]) / span;
  }
  // Every step inside the interval must match the slope, per class.
  std::vector<double> before(row_a, row_a + num_classes);
  std::vector<double> row = before;
  for (int idx = a_idx + 1; idx <= b_idx; ++idx) {
    scan.AccumulatePosition(idx, row.data());
    double dx = scan.x(idx) - scan.x(idx - 1);
    for (size_t c = 0; c < num_classes; ++c) {
      double increment = row[c] - before[c];
      if (std::fabs(increment - slope[c] * dx) > kMassEpsilon) {
        return false;
      }
    }
    before = row;
  }
  return true;
}

std::vector<EndpointInterval> SegmentIntoIntervals(
    const AttributeScan& scan, const std::vector<int>& endpoints) {
  return SegmentIntoIntervals(endpoints, scan.RowsAt(endpoints).data(),
                              scan.num_classes());
}

std::vector<EndpointInterval> SegmentIntoIntervals(
    const std::vector<int>& endpoints, const double* rows, int num_classes) {
  std::vector<EndpointInterval> intervals;
  if (endpoints.size() < 2) return intervals;
  const size_t nc = static_cast<size_t>(num_classes);
  intervals.reserve(endpoints.size() - 1);
  for (size_t i = 0; i + 1 < endpoints.size(); ++i) {
    EndpointInterval interval;
    interval.a_idx = endpoints[i];
    interval.b_idx = endpoints[i + 1];
    UDT_DCHECK(interval.a_idx < interval.b_idx);
    interval.kind =
        ClassifyInterval(rows + i * nc, rows + (i + 1) * nc, num_classes);
    intervals.push_back(interval);
  }
  return intervals;
}

}  // namespace udt
