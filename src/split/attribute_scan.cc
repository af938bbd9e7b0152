#include "split/attribute_scan.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/task_pool.h"

namespace udt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

PresortedAxes PresortedAxes::Presort(const Dataset& data,
                                     const std::vector<bool>& want,
                                     TaskPool* pool) {
  PresortedAxes axes;
  axes.axes_.resize(want.size());
  auto sort = [&](size_t j) {
    if (!want[j]) return;
    struct Point {
      double x;
      int32_t tuple;
    };
    size_t total = 0;
    for (int t = 0; t < data.num_tuples(); ++t) {
      total += static_cast<size_t>(data.tuple(t).values[j].pdf().num_points());
    }
    std::vector<Point> points;
    points.reserve(total);
    // Gathered in (tuple, point) order, so a stable sort on x alone
    // yields the (x, tuple, point) key order.
    for (int t = 0; t < data.num_tuples(); ++t) {
      const SampledPdf& pdf = data.tuple(t).values[j].pdf();
      for (int p = 0; p < pdf.num_points(); ++p) {
        points.push_back(Point{pdf.point(p), t});
      }
    }
    // Scans index an axis with uint32_t.
    UDT_CHECK(points.size() < std::numeric_limits<uint32_t>::max());
    std::stable_sort(points.begin(), points.end(),
                     [](const Point& a, const Point& b) { return a.x < b.x; });
    PresortedAxis& axis = axes.axes_[j];
    axis.x.reserve(points.size());
    axis.tuple.reserve(points.size());
    for (const Point& point : points) {
      axis.x.push_back(point.x);
      axis.tuple.push_back(point.tuple);
    }
  };
  if (pool == nullptr) {
    for (size_t j = 0; j < want.size(); ++j) sort(j);
  } else {
    pool->ParallelFor(want.size(), /*grain=*/1,
                      [&sort](int /*slot*/, size_t begin, size_t end) {
                        for (size_t j = begin; j < end; ++j) sort(j);
                      });
  }
  return axes;
}

PresortedAxes PresortedAxes::Build(const Dataset& data, TaskPool* pool) {
  std::vector<bool> numerical(static_cast<size_t>(data.num_attributes()));
  for (int j = 0; j < data.num_attributes(); ++j) {
    numerical[static_cast<size_t>(j)] =
        data.schema().attribute(j).kind == AttributeKind::kNumerical;
  }
  return Presort(data, numerical, pool);
}

PresortedAxes PresortedAxes::BuildOne(const Dataset& data, int attribute) {
  UDT_CHECK(data.schema().attribute(attribute).kind ==
            AttributeKind::kNumerical);
  std::vector<bool> want(static_cast<size_t>(data.num_attributes()), false);
  want[static_cast<size_t>(attribute)] = true;
  return Presort(data, want, /*pool=*/nullptr);
}

AttributeScan AttributeScan::Build(const Dataset& data, const WorkingSet& set,
                                   int attribute, int num_classes) {
  ScanScratch scratch;
  return Build(data, set, attribute,
               PresortedAxes::BuildOne(data, attribute).axis(attribute),
               num_classes, &scratch);
}

AttributeScan AttributeScan::Build(const Dataset& data, const WorkingSet& set,
                                   int attribute, const PresortedAxis& axis,
                                   int num_classes, ScanScratch* scratch) {
  const size_t j = static_cast<size_t>(attribute);
  const size_t nc = static_cast<size_t>(num_classes);
  AttributeScan scan;
  scan.num_classes_ = num_classes;
  scan.class_totals_.assign(nc, 0.0);

  // Load each working-set tuple's constraint into its slot.
  const size_t num_tuples = static_cast<size_t>(data.num_tuples());
  std::vector<ScanScratch::Range>& ranges = scratch->ranges;
  std::vector<ScanScratch::TupleSlot>& slots = scratch->slots;
  if (ranges.size() < num_tuples) {
    ranges.resize(num_tuples);
    slots.resize(num_tuples);
  }
  scratch->touched.clear();
  for (const FractionalTuple& ft : set) {
    const size_t t = static_cast<size_t>(ft.tuple_index);
    UDT_DCHECK(slots[t].cls < 0);  // at most one entry per tuple
    const UncertainTuple& tuple = data.tuple(ft.tuple_index);
    const SampledPdf& pdf = tuple.values[j].pdf();
    slots[t].cls = tuple.label;
    scratch->touched.push_back(ft.tuple_index);
    const double lo = ft.lo[j];
    const double hi = ft.hi[j];
    // Unconstrained, the tuple keeps all its mass: F(+inf) - F(-inf) is
    // the last cumulative mass, with no search.
    const bool unconstrained = lo == -kInf && hi == kInf;
    const double constrained =
        unconstrained ? pdf.cumulative_data()[pdf.num_points() - 1]
                      : ConstrainedMass(pdf, lo, hi);
    if (constrained <= 0.0) continue;  // no mass under the constraint
    ranges[t] = ScanScratch::Range{lo, hi};
    slots[t].scale = ft.weight / constrained;
    slots[t].masses =
        pdf.masses_data() + (unconstrained ? 0 : pdf.FirstPointAbove(lo));
  }

  // Filter: the indices of the kept points, in axis order, and the number
  // of distinct x among them. Branch-free, since whether a point is kept
  // is close to a coin flip.
  std::vector<uint32_t>& kept = scratch->kept;
  if (kept.size() < axis.size() + 1) kept.resize(axis.size() + 1);
  size_t num_kept = 0;
  size_t num_positions = 0;
  double last_x = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < axis.size(); ++i) {
    const double x = axis.x[i];
    const ScanScratch::Range& range =
        ranges[static_cast<size_t>(axis.tuple[i])];
    const bool keep = (x > range.lo) & (x <= range.hi);
    kept[num_kept] = static_cast<uint32_t>(i);
    num_kept += static_cast<size_t>(keep);
    num_positions += static_cast<size_t>(keep & (x != last_x));
    last_x = keep ? x : last_x;
  }

  if (num_kept > 0) {
    // Accumulate: one row of running class masses per distinct x.
    scan.xs_.reserve(num_positions);
    scan.cumulative_.reserve(num_positions * nc);
    std::vector<double>& running = scratch->running;
    running.assign(nc, 0.0);
    for (size_t k = 0; k < num_kept; ++k) {
      const double x = axis.x[kept[k]];
      ScanScratch::TupleSlot& slot =
          slots[static_cast<size_t>(axis.tuple[kept[k]])];
      if (scan.xs_.empty() || x != scan.xs_.back()) {
        if (!scan.xs_.empty()) {
          scan.cumulative_.insert(scan.cumulative_.end(), running.begin(),
                                  running.end());
        }
        scan.xs_.push_back(x);
      }
      running[static_cast<size_t>(slot.cls)] += *slot.masses++ * slot.scale;
      const int pos = static_cast<int>(scan.xs_.size() - 1);
      if (slot.first_pos < 0) slot.first_pos = pos;
      slot.last_pos = pos;
    }
    scan.cumulative_.insert(scan.cumulative_.end(), running.begin(),
                            running.end());
    UDT_DCHECK(scan.xs_.size() == num_positions);
    scan.class_totals_ = running;
    for (double t : running) scan.total_mass_ += t;

    // End points: every kept tuple's first and last position, ascending
    // and unique.
    std::vector<uint8_t>& is_endpoint = scratch->is_endpoint;
    is_endpoint.assign(scan.xs_.size(), 0);
    for (int t : scratch->touched) {
      const ScanScratch::TupleSlot& slot = slots[static_cast<size_t>(t)];
      if (slot.first_pos < 0) continue;
      is_endpoint[static_cast<size_t>(slot.first_pos)] = 1;
      is_endpoint[static_cast<size_t>(slot.last_pos)] = 1;
    }
    for (size_t p = 0; p < is_endpoint.size(); ++p) {
      if (is_endpoint[p] != 0) {
        scan.endpoint_positions_.push_back(static_cast<int>(p));
      }
    }
    UDT_DCHECK(scan.endpoint_positions_.front() == 0);
    UDT_DCHECK(scan.endpoint_positions_.back() == scan.num_positions() - 1);
  }

  for (int t : scratch->touched) {
    ranges[static_cast<size_t>(t)] = ScanScratch::Range();
    slots[static_cast<size_t>(t)] = ScanScratch::TupleSlot();
  }
  return scan;
}

void AttributeScan::LeftCounts(int idx, std::vector<double>* out) const {
  out->assign(static_cast<size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    (*out)[static_cast<size_t>(c)] = CumulativeMass(idx, c);
  }
}

void AttributeScan::RightCounts(int idx, std::vector<double>* out) const {
  out->assign(static_cast<size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    double v = class_totals_[static_cast<size_t>(c)] - CumulativeMass(idx, c);
    (*out)[static_cast<size_t>(c)] = v > 0.0 ? v : 0.0;
  }
}

void AttributeScan::IntervalStats(int a_idx, int b_idx,
                                  std::vector<double>* nc,
                                  std::vector<double>* kc,
                                  std::vector<double>* mc) const {
  UDT_DCHECK(a_idx < b_idx);
  nc->assign(static_cast<size_t>(num_classes_), 0.0);
  kc->assign(static_cast<size_t>(num_classes_), 0.0);
  mc->assign(static_cast<size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    double at_a = CumulativeMass(a_idx, c);
    double at_b = CumulativeMass(b_idx, c);
    double total = class_totals_[static_cast<size_t>(c)];
    (*nc)[static_cast<size_t>(c)] = at_a;
    double k = at_b - at_a;
    (*kc)[static_cast<size_t>(c)] = k > 0.0 ? k : 0.0;
    double m = total - at_b;
    (*mc)[static_cast<size_t>(c)] = m > 0.0 ? m : 0.0;
  }
}

}  // namespace udt
