#include "split/attribute_scan.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/task_pool.h"
#include "pdf/pdf_kernels.h"

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
    // `index` is the point's gather index, offset[tuple] + point index; it
    // fills what would otherwise be padding.
    struct Point {
      double x;
      int32_t tuple;
      uint32_t index;
    };
    PresortedAxis& axis = axes.axes_[j];
    axis.offset.reserve(static_cast<size_t>(data.num_tuples()) + 1);
    size_t total = 0;
    for (int t = 0; t < data.num_tuples(); ++t) {
      axis.offset.push_back(static_cast<uint32_t>(total));
      total += static_cast<size_t>(data.tuple(t).values[j].pdf().num_points());
    }
    // Scans index an axis with uint32_t.
    UDT_CHECK(total < std::numeric_limits<uint32_t>::max());
    axis.offset.push_back(static_cast<uint32_t>(total));
    std::vector<Point> points;
    points.reserve(total);
    // Gathered in (tuple, point) order, so a stable sort on x alone
    // yields the (x, tuple, point) key order.
    for (int t = 0; t < data.num_tuples(); ++t) {
      const SampledPdf& pdf = data.tuple(t).values[j].pdf();
      for (int p = 0; p < pdf.num_points(); ++p) {
        points.push_back(Point{pdf.point(p), t,
                               static_cast<uint32_t>(points.size())});
      }
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const Point& a, const Point& b) { return a.x < b.x; });
    axis.x.resize(total);
    axis.tuple.resize(total);
    axis.rank.resize(total);
    for (size_t i = 0; i < total; ++i) {
      axis.x[i] = points[i].x;
      axis.tuple[i] = points[i].tuple;
      axis.rank[points[i].index] = static_cast<uint32_t>(i);
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

Status PresortedAxes::CheckShape(const Dataset& data) const {
  if (axes_.size() != static_cast<size_t>(data.num_attributes())) {
    return Status::InvalidArgument(
        "presorted axes have " + std::to_string(axes_.size()) +
        " attributes, the data set " +
        std::to_string(data.num_attributes()));
  }
  const size_t num_tuples = static_cast<size_t>(data.num_tuples());
  for (int j = 0; j < data.num_attributes(); ++j) {
    if (data.schema().attribute(j).kind != AttributeKind::kNumerical) {
      continue;
    }
    const PresortedAxis& axis = axes_[static_cast<size_t>(j)];
    bool fits = axis.offset.size() == num_tuples + 1 &&
                axis.offset.back() == axis.size() &&
                axis.rank.size() == axis.size() &&
                axis.tuple.size() == axis.size();
    for (size_t t = 0; fits && t < num_tuples; ++t) {
      fits = axis.offset[t + 1] - axis.offset[t] ==
             static_cast<uint32_t>(data.tuple(static_cast<int>(t))
                                       .values[static_cast<size_t>(j)]
                                       .pdf()
                                       .num_points());
    }
    if (!fits) {
      return Status::InvalidArgument(
          "presorted axis of attribute " + std::to_string(j) +
          " does not match the data set's tuples and points");
    }
  }
  return Status::OK();
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

  std::vector<ScanScratch::TupleSlot>& slots = scratch->slots;
  std::vector<uint64_t>& ranks = scratch->ranks;
  if (slots.size() < static_cast<size_t>(data.num_tuples())) {
    slots.resize(static_cast<size_t>(data.num_tuples()));
  }
  if (ranks.size() < (axis.size() + 63) / 64) {
    ranks.resize((axis.size() + 63) / 64);
  }

  // Gather: each working-set tuple keeps the points of its pdf inside its
  // (lo, hi] constraint, the run [FirstPointAbove(lo), FirstPointAbove(hi));
  // their ranks go into the bitmap.
  scratch->touched.clear();
  size_t num_records = 0;
  size_t num_kept_tuples = 0;
  size_t word_lo = ranks.size();
  size_t word_hi = 0;
  for (const FractionalTuple& ft : set) {
    const size_t t = static_cast<size_t>(ft.tuple_index);
    ScanScratch::TupleSlot& slot = slots[t];
    UDT_DCHECK(slot.cls < 0);  // at most one entry per tuple
    const UncertainTuple& tuple = data.tuple(ft.tuple_index);
    const SampledPdf& pdf = tuple.values[j].pdf();
    slot.cls = tuple.label;
    scratch->touched.push_back(ft.tuple_index);
    const double lo = ft.lo[j];
    const double hi = ft.hi[j];
    // Unconstrained, the tuple keeps all its points, with no search.
    const bool unconstrained = lo == -kInf && hi == kInf;
    const size_t n = static_cast<size_t>(pdf.num_points());
    const size_t first =
        unconstrained ? 0 : BranchlessUpperBound(pdf.points_data(), n, lo);
    const size_t last =
        unconstrained ? n : BranchlessUpperBound(pdf.points_data(), n, hi);
    // F(hi) - F(lo), read as ConstrainedMass reads it.
    const double* cumulative = pdf.cumulative_data();
    const double constrained = (last == 0 ? 0.0 : cumulative[last - 1]) -
                               (first == 0 ? 0.0 : cumulative[first - 1]);
    if (constrained <= 0.0) continue;  // no mass under the constraint
    slot.scale = ft.weight / constrained;
    slot.masses = pdf.masses_data() + first;
    slot.kept = static_cast<int32_t>(last - first);
    slot.remaining = slot.kept;
    num_records += last - first;
    ++num_kept_tuples;
    const uint32_t* rank = axis.rank.data() + axis.offset[t];
    for (size_t p = first; p < last; ++p) {
      ranks[rank[p] >> 6] |= uint64_t{1} << (rank[p] & 63);
    }
    word_lo = std::min<size_t>(word_lo, rank[first] >> 6);
    word_hi = std::max<size_t>(word_hi, rank[last - 1] >> 6);
  }

  if (num_records > 0) {
    // Accumulate: visit the set bits in ascending order, which is axis
    // order, clearing the bitmap behind. A position closes when x changes;
    // its running row is kept if it holds a tuple's first or last point.
    scan.masses_.resize(num_records);
    scan.classes_.resize(num_records);
    scan.xs_.reserve(num_records);
    scan.pos_begin_.reserve(num_records + 1);
    // At most a first and a last point per kept tuple.
    scan.endpoint_positions_.reserve(2 * num_kept_tuples);
    scan.rows_.reserve(2 * num_kept_tuples * nc);
    std::vector<double>& running = scratch->running;
    running.assign(nc, 0.0);
    auto snapshot = [&] {
      scan.endpoint_positions_.push_back(scan.num_positions() - 1);
      scan.rows_.insert(scan.rows_.end(), running.begin(), running.end());
    };
    bool endpoint = false;  // of the open position
    size_t k = 0;
    for (size_t w = word_lo; w <= word_hi; ++w) {
      uint64_t bits = ranks[w];
      ranks[w] = 0;
      while (bits != 0) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const double x = axis.x[i];
        ScanScratch::TupleSlot& slot =
            slots[static_cast<size_t>(axis.tuple[i])];
        if (scan.xs_.empty() || x != scan.xs_.back()) {
          if (endpoint) snapshot();
          endpoint = false;
          scan.xs_.push_back(x);
          scan.pos_begin_.push_back(static_cast<uint32_t>(k));
        }
        const double mass = *slot.masses++ * slot.scale;
        scan.masses_[k] = mass;
        scan.classes_[k] = slot.cls;
        ++k;
        running[static_cast<size_t>(slot.cls)] += mass;
        endpoint |= slot.remaining == slot.kept || slot.remaining == 1;
        --slot.remaining;
      }
    }
    UDT_DCHECK(k == num_records);
    UDT_DCHECK(endpoint);  // the last position holds a last point
    snapshot();
    scan.pos_begin_.push_back(static_cast<uint32_t>(k));
    scan.class_totals_ = running;
    for (double t : running) scan.total_mass_ += t;
    UDT_DCHECK(scan.endpoint_positions_.front() == 0);
    UDT_DCHECK(scan.endpoint_positions_.back() == scan.num_positions() - 1);
  }

  for (int t : scratch->touched) {
    slots[static_cast<size_t>(t)] = ScanScratch::TupleSlot();
  }
  return scan;
}

void AttributeScan::RowAt(int idx, double* row) const {
  // The end point at or before idx: position 0 is always one.
  const size_t e = static_cast<size_t>(
      std::upper_bound(endpoint_positions_.begin(), endpoint_positions_.end(),
                       idx) -
      endpoint_positions_.begin() - 1);
  std::copy_n(EndpointRow(e), num_classes_, row);
  for (int p = endpoint_positions_[e] + 1; p <= idx; ++p) {
    AccumulatePosition(p, row);
  }
}

std::vector<double> AttributeScan::RowsAt(
    const std::vector<int>& positions) const {
  const size_t nc = static_cast<size_t>(num_classes_);
  std::vector<double> rows(positions.size() * nc);
  std::vector<double> row(nc);
  int at = -1;   // position `row` holds
  size_t e = 0;  // the last end point at or before the target
  for (size_t i = 0; i < positions.size(); ++i) {
    const int target = positions[i];
    while (e + 1 < endpoint_positions_.size() &&
           endpoint_positions_[e + 1] <= target) {
      ++e;
    }
    if (endpoint_positions_[e] > at) {
      at = endpoint_positions_[e];
      std::copy_n(EndpointRow(e), nc, row.begin());
    }
    while (at < target) AccumulatePosition(++at, row.data());
    std::copy(row.begin(), row.end(), rows.begin() + i * nc);
  }
  return rows;
}

double AttributeScan::CumulativeMass(int idx, int cls) const {
  std::vector<double> row(static_cast<size_t>(num_classes_));
  RowAt(idx, row.data());
  return row[static_cast<size_t>(cls)];
}

void AttributeScan::LeftCounts(int idx, std::vector<double>* out) const {
  out->resize(static_cast<size_t>(num_classes_));
  RowAt(idx, out->data());
}

void AttributeScan::RightCounts(int idx, std::vector<double>* out) const {
  LeftCounts(idx, out);
  for (int c = 0; c < num_classes_; ++c) {
    double& v = (*out)[static_cast<size_t>(c)];
    v = class_totals_[static_cast<size_t>(c)] - v;
    v = v > 0.0 ? v : 0.0;
  }
}

void AttributeScan::IntervalStats(int a_idx, int b_idx,
                                  std::vector<double>* nc,
                                  std::vector<double>* kc,
                                  std::vector<double>* mc) const {
  UDT_DCHECK(a_idx < b_idx);
  std::vector<double> row_a(static_cast<size_t>(num_classes_));
  std::vector<double> row_b(static_cast<size_t>(num_classes_));
  RowAt(a_idx, row_a.data());
  RowAt(b_idx, row_b.data());
  IntervalStatsFromRows(row_a.data(), row_b.data(), nc, kc, mc);
}

void AttributeScan::IntervalStatsFromRows(const double* row_a,
                                          const double* row_b,
                                          std::vector<double>* nc,
                                          std::vector<double>* kc,
                                          std::vector<double>* mc) const {
  nc->resize(static_cast<size_t>(num_classes_));
  kc->resize(static_cast<size_t>(num_classes_));
  mc->resize(static_cast<size_t>(num_classes_));
  for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
    (*nc)[c] = row_a[c];
    double k = row_b[c] - row_a[c];
    (*kc)[c] = k > 0.0 ? k : 0.0;
    double m = class_totals_[c] - row_b[c];
    (*mc)[c] = m > 0.0 ? m : 0.0;
  }
}

}  // namespace udt
