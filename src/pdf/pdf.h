// SampledPdf: the paper's representation of an uncertain attribute value.
//
// Section 3.2: "a pdf would be implemented numerically by storing a set of s
// sample points x in [a,b] with the associated value f(x), effectively
// approximating f by a discrete distribution with s possible values."
//
// SampledPdf is exactly that discrete distribution: sorted sample points
// with strictly positive masses summing to one, plus a prefix-sum array so
// that P(X <= z) — the integral the tree algorithms evaluate at every
// candidate split — costs O(log s) ("by storing the pdf in the form of a
// cumulative distribution, the integration can be done by simply
// subtracting two cumulative probabilities", Section 4.2).

#ifndef UDT_PDF_PDF_H_
#define UDT_PDF_PDF_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace udt {

// Immutable discrete probability distribution over a bounded support.
// Cheap to copy by design (a Dataset shares tuples across folds by value);
// the vectors are the only storage.
class SampledPdf {
 public:
  // Builds a pdf from parallel arrays of sample points and non-negative
  // masses. Points need not be sorted or unique: they are sorted, duplicates
  // are merged and zero-mass points dropped. Masses are renormalised to sum
  // to one. Fails if the arrays mismatch, are empty, contain non-finite
  // values, or carry no positive mass.
  static StatusOr<SampledPdf> Create(std::vector<double> points,
                                     std::vector<double> masses);

  // A distribution concentrated at a single value (a certain attribute).
  static SampledPdf PointMass(double x);

  // Number of distinct sample points (the paper's s, after deduplication).
  int num_points() const { return static_cast<int>(points_.size()); }

  // i-th sample point, ascending order. Requires 0 <= i < num_points().
  double point(int i) const { return points_[static_cast<size_t>(i)]; }

  // Mass at the i-th sample point; strictly positive.
  double mass(int i) const { return masses_[static_cast<size_t>(i)]; }

  // Smallest / largest sample point: the support [a_ij, b_ij] of the paper.
  double support_min() const { return points_.front(); }
  double support_max() const { return points_.back(); }

  // True if the whole mass sits on one point.
  bool is_point() const { return points_.size() == 1; }

  // Expected value (the representative value used by the AVG approach).
  double Mean() const { return mean_; }

  // Variance of the discrete distribution.
  double Variance() const;

  // P(X <= z), in O(log s).
  double CdfAtOrBelow(double z) const;

  // Raw array views for the branchless batch kernels (pdf/pdf_kernels.h)
  // and the split scans: num_points() ascending unique sample points,
  // their masses and their prefix-sum cumulative masses
  // (cumulative_data()[num_points()-1] is exactly 1.0).
  const double* points_data() const { return points_.data(); }
  const double* masses_data() const { return masses_.data(); }
  const double* cumulative_data() const { return cumulative_.data(); }

  // P(lo < X <= hi) = F(hi) - F(lo). Returns 0 when hi <= lo.
  double MassInHalfOpen(double lo, double hi) const;

  // Index of the first sample point strictly greater than z, or num_points()
  // if none. Used by the split scanners to enumerate candidates.
  int FirstPointAbove(double z) const;

  // Human-readable one-line summary, e.g. "{-1:0.625, 1:0.125, 10:0.25}".
  std::string ToString() const;

  // Heap + struct footprint of this pdf: sizeof(SampledPdf) plus the three
  // sample arrays' allocations. The storage tier's memory accounting
  // (table/dataset.h MemoryBreakdown) sums this per distinct instance.
  size_t MemoryUsageBytes() const;

 private:
  SampledPdf(std::vector<double> points, std::vector<double> masses,
             std::vector<double> cumulative, double mean)
      : points_(std::move(points)),
        masses_(std::move(masses)),
        cumulative_(std::move(cumulative)),
        mean_(mean) {}

  std::vector<double> points_;      // ascending, unique
  std::vector<double> masses_;      // positive, sums to 1
  std::vector<double> cumulative_;  // cumulative_[i] = sum(masses_[0..i])
  double mean_;
};

}  // namespace udt

#endif  // UDT_PDF_PDF_H_
