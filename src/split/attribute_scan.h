// AttributeScan: the per-(node, attribute) view all split finders share.
//
// Each numerical attribute is sorted once per tree build into a presorted
// axis (PresortedAxes): every sample point of every data-set tuple,
// ordered by (x, tuple index, point index). A node's scan walks that axis
// once, keeping the points whose tuple is in the working set and whose x
// lies in the tuple's (lo, hi] constraint, then accumulates the kept
// points' renormalised masses, in axis order, into the cumulative
// per-class probability mass of each distinct x (the paper's tuple-count
// function Phi_{c,j}, Definition 6). No scan sorts anything. With it:
//   * candidate split points  = the positions (all but the last),
//   * left/right class counts = O(#classes) lookups,
//   * interval statistics (n_c, k_c, m_c) for the pruning bounds
//                             = two lookups per class,
//   * interval end points Q_j = the positions of each tuple's first and
//     last kept point, recorded while accumulating.
//
// Tie order is canonical: the masses of points with equal x are summed in
// (tuple index, point index) order, which the presort key fixes. A scan's
// bytes therefore depend on the data alone, not on the order in which a
// standard library's sort leaves equal keys.

#ifndef UDT_SPLIT_ATTRIBUTE_SCAN_H_
#define UDT_SPLIT_ATTRIBUTE_SCAN_H_

#include <cstdint>
#include <limits>
#include <vector>

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
  // A working-set tuple's (lo, hi] constraint. Tuples outside the working
  // set, or with no mass under their constraint, keep the empty range
  // (+inf, -inf], which no x passes.
  struct Range {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
  };
  // The rest of a working-set tuple's view of the attribute.
  struct TupleSlot {
    double scale = 0.0;  // weight / constrained mass
    // The masses of the tuple's points inside its constraint, consumed
    // in order as the scan keeps them.
    const double* masses = nullptr;
    int cls = -1;        // label; -1 = not in the working set
    int first_pos = -1;  // positions of the first and last kept point
    int last_pos = -1;
  };
  // Both indexed by data-set tuple index.
  std::vector<Range> ranges;
  std::vector<TupleSlot> slots;
  std::vector<int> touched;          // tuple indices whose entries are set
  std::vector<uint32_t> kept;        // axis indices of the kept points
  std::vector<double> running;       // per-class running mass
  std::vector<uint8_t> is_endpoint;  // per position
};

// Built once per (node, numerical attribute); immutable afterwards.
class AttributeScan {
 public:
  // An empty scan (no positions); Build() produces the real thing.
  AttributeScan() = default;

  // Builds the scan of `set` over `axis`, the presorted attribute. Tuples
  // contribute their sample points restricted to their (lo, hi]
  // constraint, with masses scaled by weight / constrained-mass (the
  // lazily-renormalised truncated pdf of Section 3.2). A tuple index may
  // appear at most once in `set`.
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

  // Total mass of class `cls` at positions <= idx.
  double CumulativeMass(int idx, int cls) const {
    return cumulative_[static_cast<size_t>(idx) *
                           static_cast<size_t>(num_classes_) +
                       static_cast<size_t>(cls)];
  }

  // Class counts of the left side for a split at x(idx): out[c] = mass of
  // class c at positions <= idx.
  void LeftCounts(int idx, std::vector<double>* out) const;

  // Class counts of the right side: totals - left.
  void RightCounts(int idx, std::vector<double>* out) const;

  // Per-class total mass over the whole axis.
  const std::vector<double>& class_totals() const { return class_totals_; }
  double total_mass() const { return total_mass_; }

  // Positions of the tuple support end points (the paper's Q_j), ascending
  // and unique. Always contains position 0 and num_positions()-1 when the
  // scan is non-empty.
  const std::vector<int>& endpoint_positions() const {
    return endpoint_positions_;
  }

  // Interval statistics for the half-open interval (x(a_idx), x(b_idx)]:
  //   nc[c] = mass at positions <= a_idx        (paper: Phi_c(-inf, a])
  //   kc[c] = mass in (a_idx, b_idx]            (paper: Phi_c(a, b])
  //   mc[c] = mass at positions > b_idx         (paper: Phi_c(b, +inf))
  // Requires a_idx < b_idx.
  void IntervalStats(int a_idx, int b_idx, std::vector<double>* nc,
                     std::vector<double>* kc, std::vector<double>* mc) const;

 private:
  std::vector<double> xs_;
  std::vector<double> cumulative_;  // row-major [position][class]
  std::vector<double> class_totals_;
  std::vector<int> endpoint_positions_;
  double total_mass_ = 0.0;
  int num_classes_ = 0;
};

}  // namespace udt

#endif  // UDT_SPLIT_ATTRIBUTE_SCAN_H_
