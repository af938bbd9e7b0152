// AttributeScan: the per-(node, attribute) view all split finders share.
//
// Each numerical attribute is sorted once per tree build into a presorted
// axis (PresortedAxes): every sample point of every data-set tuple,
// ordered by (x, tuple index, point index), plus the inverse permutation
// (each tuple point's axis index, its rank). No scan sorts anything.
//
// Cost model. A working-set tuple keeps the contiguous run of its pdf's
// points inside its (lo, hi] constraint, found by two binary searches. A
// scan sets the ranks of the kept points in a bitmap and visits the set
// bits in ascending order: that is axis order, without reading the rest
// of the axis. Building a scan costs O(kept points + axis size / 64)
// plus O(#classes) per end point: only the walk over the bitmap's words
// grows with the whole axis.
//
// What is stored. One record per kept point, in axis order: its
// renormalised mass (weight / constrained mass, the lazily-renormalised
// truncated pdf of Section 3.2) and its class. Per distinct x (a
// position): x and the index of its first record. The cumulative
// per-class mass (the paper's tuple-count function Phi_{c,j},
// Definition 6) is kept as a row only at the end points Q_j, the
// positions of each tuple's first and last kept point. The split finders
// score end points and interval bounds from those rows, O(1) each. They
// reach the rows of interior positions by one forward sweep: start from
// the interval's left end-point row and add each following position's
// records (AccumulatePosition). The random-access queries below
// (CumulativeMass, LeftCounts, RightCounts, IntervalStats) stay exact at
// every position the same way, re-accumulating from the preceding end
// point; they suit tests and one-off queries, not per-position loops.
//
// Tie order is canonical and unchanged by where a row is read: the masses
// of points with equal x are summed in (tuple index, point index) order,
// which the presort key fixes, and every row, whether snapshotted at an
// end point or reached by a sweep, is the same sequence of additions. A
// scan's bytes therefore depend on the data alone, not on the order in
// which a standard library's sort leaves equal keys.

#ifndef UDT_SPLIT_ATTRIBUTE_SCAN_H_
#define UDT_SPLIT_ATTRIBUTE_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "split/fractional_tuple.h"
#include "table/dataset.h"

namespace udt {

class TaskPool;  // common/task_pool.h

// One numerical attribute's sample points over the whole data set,
// sorted by (x, tuple index, point index), as structure-of-arrays. The
// point index is not stored: a tuple's points appear in ascending order,
// so the k-th point a scan keeps of a tuple is the k-th point of its pdf
// inside the tuple's constraint, and its mass is read from the pdf.
struct PresortedAxis {
  std::vector<double> x;
  std::vector<int32_t> tuple;  // data-set tuple index
  // The inverse permutation: rank[offset[t] + p] is the axis index of
  // point p of tuple t's pdf. One offset per tuple, plus one.
  std::vector<uint32_t> offset;
  std::vector<uint32_t> rank;

  size_t size() const { return x.size(); }
};

// The numerical attributes of a data set, each presorted. Built at the
// start of a tree build (or once for all trees of a forest) and shared
// read-only by every node and pool task. Each attribute is a separate
// allocation: a single block for all of them measured a higher peak RSS,
// because freeing a block that large raises glibc's mmap threshold and
// the scans' tables then stay resident in the heap.
class PresortedAxes {
 public:
  PresortedAxes() = default;

  // Presorts every numerical attribute of `data`, one pool task per
  // attribute when `pool` is non-null.
  static PresortedAxes Build(const Dataset& data, TaskPool* pool);

  // Presorts `attribute` alone (which must be numerical).
  static PresortedAxes BuildOne(const Dataset& data, int attribute);

  // The sorted points of `attribute`; empty for a categorical attribute
  // or one not presorted.
  const PresortedAxis& axis(int attribute) const {
    return axes_[static_cast<size_t>(attribute)];
  }

  // OK if these axes have the shape Build(data, ...) gives: one axis per
  // attribute and, for every numerical attribute, one offset per tuple
  // plus one with each tuple's point count. InvalidArgument otherwise:
  // scans index an axis by tuple and point, so axes presorted from
  // another data set would read out of bounds.
  Status CheckShape(const Dataset& data) const;

 private:
  // Sorts the attributes j with want[j] set; the others stay empty.
  static PresortedAxes Presort(const Dataset& data,
                               const std::vector<bool>& want,
                               TaskPool* pool);

  std::vector<PresortedAxis> axes_;  // one per attribute
};

// Per-task scratch of AttributeScan::Build, reused across scans. Holds no
// state between scans: every entry a scan touches is reset before it
// returns.
struct ScanScratch {
  // A working-set tuple's view of the attribute, indexed by data-set
  // tuple index.
  struct TupleSlot {
    double scale = 0.0;  // weight / constrained mass
    // The masses of the tuple's points inside its constraint, consumed
    // in order as the scan visits them.
    const double* masses = nullptr;
    int32_t cls = -1;  // label; -1 = not in the working set
    // Kept points in all, and those not visited yet: the first visit
    // finds remaining == kept, the last remaining == 1.
    int32_t kept = 0;
    int32_t remaining = 0;
  };
  std::vector<TupleSlot> slots;
  std::vector<int> touched;     // tuple indices whose slots are set
  std::vector<uint64_t> ranks;  // bitmap over axis indices; all clear
  std::vector<double> running;  // per-class running mass
};

// Built once per (node, numerical attribute); immutable afterwards.
class AttributeScan {
 public:
  // An empty scan (no positions); Build() produces the real thing.
  AttributeScan() = default;

  // Builds the scan of `set` over `axis`, the presorted attribute. Tuples
  // contribute their sample points restricted to their (lo, hi]
  // constraint, with masses scaled by weight / constrained-mass. A tuple
  // index may appear at most once in `set`.
  static AttributeScan Build(const Dataset& data, const WorkingSet& set,
                             int attribute, const PresortedAxis& axis,
                             int num_classes, ScanScratch* scratch);

  // As above, presorting `attribute` on the spot.
  static AttributeScan Build(const Dataset& data, const WorkingSet& set,
                             int attribute, int num_classes);

  // Number of distinct candidate positions (distinct sample x values).
  int num_positions() const { return static_cast<int>(xs_.size()); }
  bool empty() const { return xs_.empty(); }

  // x value of position `idx` (ascending in idx).
  double x(int idx) const { return xs_[static_cast<size_t>(idx)]; }

  int num_classes() const { return num_classes_; }

  // Per-class total mass over the whole axis.
  const std::vector<double>& class_totals() const { return class_totals_; }
  double total_mass() const { return total_mass_; }

  // Positions of the tuple support end points (the paper's Q_j), ascending
  // and unique. Always contains position 0 and num_positions()-1 when the
  // scan is non-empty.
  const std::vector<int>& endpoint_positions() const {
    return endpoint_positions_;
  }

  // The cumulative row at end point `e` (position endpoint_positions()[e]):
  // num_classes() masses, row[c] = mass of class c at positions <= it.
  const double* EndpointRow(size_t e) const {
    return rows_.data() + e * static_cast<size_t>(num_classes_);
  }

  // One sweep step: adds the masses of position `idx` to `row`, in axis
  // order. Turns the row at idx-1 into the row at idx, bit for bit.
  void AccumulatePosition(int idx, double* row) const {
    const size_t end = pos_begin_[static_cast<size_t>(idx) + 1];
    for (size_t k = pos_begin_[static_cast<size_t>(idx)]; k < end; ++k) {
      row[static_cast<size_t>(classes_[k])] += masses_[k];
    }
  }

  // The cumulative rows at `positions` (ascending), [position][class],
  // each swept from the nearest row at or before it.
  std::vector<double> RowsAt(const std::vector<int>& positions) const;

  // Random access; each call re-accumulates from the end point at or
  // before idx.
  //
  // Total mass of class `cls` at positions <= idx.
  double CumulativeMass(int idx, int cls) const;

  // Class counts of the left side for a split at x(idx): out[c] = mass of
  // class c at positions <= idx.
  void LeftCounts(int idx, std::vector<double>* out) const;

  // Class counts of the right side: totals - left.
  void RightCounts(int idx, std::vector<double>* out) const;

  // Interval statistics for the half-open interval (x(a_idx), x(b_idx)]:
  //   nc[c] = mass at positions <= a_idx        (paper: Phi_c(-inf, a])
  //   kc[c] = mass in (a_idx, b_idx]            (paper: Phi_c(a, b])
  //   mc[c] = mass at positions > b_idx         (paper: Phi_c(b, +inf))
  // Requires a_idx < b_idx.
  void IntervalStats(int a_idx, int b_idx, std::vector<double>* nc,
                     std::vector<double>* kc, std::vector<double>* mc) const;

  // IntervalStats from the cumulative rows at a_idx and b_idx.
  void IntervalStatsFromRows(const double* row_a, const double* row_b,
                             std::vector<double>* nc, std::vector<double>* kc,
                             std::vector<double>* mc) const;

 private:
  // Writes the cumulative row at `idx` into `row`.
  void RowAt(int idx, double* row) const;

  // Per kept point, in axis order: its scaled mass and its class.
  std::vector<double> masses_;
  std::vector<int32_t> classes_;
  // Per position: x, and the index of its first record (plus one final
  // entry, the record count).
  std::vector<double> xs_;
  std::vector<uint32_t> pos_begin_;
  // Per end point: its position and its row, [end point][class].
  std::vector<int> endpoint_positions_;
  std::vector<double> rows_;
  std::vector<double> class_totals_;
  double total_mass_ = 0.0;
  int num_classes_ = 0;
};

}  // namespace udt

#endif  // UDT_SPLIT_ATTRIBUTE_SCAN_H_
