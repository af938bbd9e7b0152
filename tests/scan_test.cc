// Tests for AttributeScan and interval segmentation: merged candidate axis,
// cumulative class masses, end points and empty/homogeneous/heterogeneous
// classification (Definitions 2-4), and the scan's byte-equality with a
// brute-force gather-sort-accumulate reference on randomized working sets.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "split/intervals.h"

namespace udt {
namespace {

Dataset ThreeTupleDataset() {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  // t0 (A): {0:.5, 2:.5}; t1 (A): point at 4; t2 (B): {6:.5, 8:.5}
  auto p0 = SampledPdf::Create({0, 2}, {1, 1});
  auto p2 = SampledPdf::Create({6, 8}, {1, 1});
  UncertainTuple t0{{UncertainValue::Numerical(*p0)}, 0};
  UncertainTuple t1{{UncertainValue::Numerical(SampledPdf::PointMass(4))}, 0};
  UncertainTuple t2{{UncertainValue::Numerical(*p2)}, 1};
  EXPECT_TRUE(ds.AddTuple(t0).ok());
  EXPECT_TRUE(ds.AddTuple(t1).ok());
  EXPECT_TRUE(ds.AddTuple(t2).ok());
  return ds;
}

TEST(ScanTest, PositionsSortedUnique) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  ASSERT_EQ(scan.num_positions(), 5);
  EXPECT_DOUBLE_EQ(scan.x(0), 0.0);
  EXPECT_DOUBLE_EQ(scan.x(1), 2.0);
  EXPECT_DOUBLE_EQ(scan.x(2), 4.0);
  EXPECT_DOUBLE_EQ(scan.x(3), 6.0);
  EXPECT_DOUBLE_EQ(scan.x(4), 8.0);
}

TEST(ScanTest, CumulativeClassMasses) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  EXPECT_NEAR(scan.CumulativeMass(0, 0), 0.5, 1e-12);   // A mass at 0
  EXPECT_NEAR(scan.CumulativeMass(1, 0), 1.0, 1e-12);   // + mass at 2
  EXPECT_NEAR(scan.CumulativeMass(2, 0), 2.0, 1e-12);   // + t1
  EXPECT_NEAR(scan.CumulativeMass(4, 0), 2.0, 1e-12);
  EXPECT_NEAR(scan.CumulativeMass(2, 1), 0.0, 1e-12);   // B starts at 6
  EXPECT_NEAR(scan.CumulativeMass(3, 1), 0.5, 1e-12);
  EXPECT_NEAR(scan.CumulativeMass(4, 1), 1.0, 1e-12);
  EXPECT_NEAR(scan.total_mass(), 3.0, 1e-12);
}

TEST(ScanTest, LeftRightCounts) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  std::vector<double> left, right;
  scan.LeftCounts(2, &left);
  scan.RightCounts(2, &right);
  EXPECT_NEAR(left[0], 2.0, 1e-12);
  EXPECT_NEAR(left[1], 0.0, 1e-12);
  EXPECT_NEAR(right[0], 0.0, 1e-12);
  EXPECT_NEAR(right[1], 1.0, 1e-12);
}

TEST(ScanTest, EndpointsAreSupportBoundaries) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  // Boundaries: t0 -> {0, 2}, t1 -> {4}, t2 -> {6, 8}. All distinct.
  const std::vector<int>& eps = scan.endpoint_positions();
  ASSERT_EQ(eps.size(), 5u);
  EXPECT_EQ(eps.front(), 0);
  EXPECT_EQ(eps.back(), 4);
}

TEST(ScanTest, ConstraintsRestrictContribution) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  // Constrain t0 to (0, inf): only its sample at 2 remains, renormalised
  // to carry the tuple's full weight.
  set[0].lo[0] = 0.0;
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  ASSERT_EQ(scan.num_positions(), 4);  // 0 is gone
  EXPECT_DOUBLE_EQ(scan.x(0), 2.0);
  EXPECT_NEAR(scan.CumulativeMass(0, 0), 1.0, 1e-12);  // full weight at 2
}

TEST(ScanTest, FractionalWeightsScaleMasses) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  set[2].weight = 0.5;
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  EXPECT_NEAR(scan.class_totals()[1], 0.5, 1e-12);
  EXPECT_NEAR(scan.total_mass(), 2.5, 1e-12);
}

TEST(ScanTest, EmptyWorkingSet) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet empty;
  AttributeScan scan = AttributeScan::Build(ds, empty, 0, 2);
  EXPECT_TRUE(scan.empty());
  EXPECT_EQ(scan.num_positions(), 0);
}

TEST(ScanTest, IntervalStatsPartitionTotals) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  std::vector<double> nc, kc, mc;
  scan.IntervalStats(1, 3, &nc, &kc, &mc);  // interval (2, 6]
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(nc[static_cast<size_t>(c)] + kc[static_cast<size_t>(c)] +
                    mc[static_cast<size_t>(c)],
                scan.class_totals()[static_cast<size_t>(c)], 1e-12);
  }
  EXPECT_NEAR(kc[0], 1.0, 1e-12);  // t1's point at 4
  EXPECT_NEAR(kc[1], 0.5, 1e-12);  // t2's sample at 6
}

TEST(IntervalTest, KindNames) {
  EXPECT_STREQ(IntervalKindToString(IntervalKind::kEmpty), "empty");
  EXPECT_STREQ(IntervalKindToString(IntervalKind::kHomogeneous),
               "homogeneous");
  EXPECT_STREQ(IntervalKindToString(IntervalKind::kHeterogeneous),
               "heterogeneous");
}

TEST(IntervalTest, ClassifyHomogeneousAndHeterogeneous) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  // (0, 2]: only class A mass -> homogeneous.
  EXPECT_EQ(ClassifyInterval(scan, 0, 1), IntervalKind::kHomogeneous);
  // (2, 6]: A mass at 4, B mass at 6 -> heterogeneous.
  EXPECT_EQ(ClassifyInterval(scan, 1, 3), IntervalKind::kHeterogeneous);
  // (6, 8]: only B -> homogeneous.
  EXPECT_EQ(ClassifyInterval(scan, 3, 4), IntervalKind::kHomogeneous);
}

TEST(IntervalTest, SegmentationCoversAxis) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  std::vector<EndpointInterval> intervals =
      SegmentIntoIntervals(scan, scan.endpoint_positions());
  ASSERT_EQ(intervals.size(), 4u);
  EXPECT_EQ(intervals.front().a_idx, 0);
  EXPECT_EQ(intervals.back().b_idx, scan.num_positions() - 1);
  for (size_t i = 0; i + 1 < intervals.size(); ++i) {
    EXPECT_EQ(intervals[i].b_idx, intervals[i + 1].a_idx);
  }
}

TEST(IntervalTest, PointDataHasNoInteriorCandidates) {
  // With point pdfs every sample is an end point: the classical case where
  // only the observed values are candidates (Section 5.1 analogue).
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 6; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(i))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  AttributeScan scan = AttributeScan::Build(ds, set, 0, 2);
  std::vector<EndpointInterval> intervals =
      SegmentIntoIntervals(scan, scan.endpoint_positions());
  for (const EndpointInterval& interval : intervals) {
    EXPECT_EQ(interval.num_interior(), 0);
  }
}

TEST(IntervalTest, NumInterior) {
  EndpointInterval interval;
  interval.a_idx = 3;
  interval.b_idx = 7;
  EXPECT_EQ(interval.num_interior(), 3);
}

// ---------------------------------------------------------------------
// Equivalence with a brute-force reference.

// What a scan must produce, computed the slow way: gather every in-range
// point, stable-sort by (x, tuple, point), accumulate in that order.
struct ReferenceScan {
  std::vector<double> xs;
  std::vector<double> cumulative;  // [position][class]
  std::vector<double> class_totals;
  std::vector<int> endpoints;
};

ReferenceScan BruteForceScan(const Dataset& data, const WorkingSet& set,
                             int attribute, int num_classes) {
  struct Point {
    double x;
    int tuple;
    int point;
    int cls;
    double mass;
  };
  const size_t j = static_cast<size_t>(attribute);
  std::vector<Point> points;
  std::vector<double> bounds;  // first and last kept x of every tuple
  for (const FractionalTuple& ft : set) {
    const UncertainTuple& tuple = data.tuple(ft.tuple_index);
    const SampledPdf& pdf = tuple.values[j].pdf();
    const double constrained = ConstrainedMass(pdf, ft.lo[j], ft.hi[j]);
    if (constrained <= 0.0) continue;
    const double scale = ft.weight / constrained;
    const size_t before = points.size();
    for (int p = 0; p < pdf.num_points(); ++p) {
      const double x = pdf.point(p);
      if (x <= ft.lo[j] || x > ft.hi[j]) continue;
      points.push_back(
          Point{x, ft.tuple_index, p, tuple.label, pdf.mass(p) * scale});
    }
    if (points.size() > before) {
      bounds.push_back(points[before].x);
      bounds.push_back(points.back().x);
    }
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const Point& a, const Point& b) {
                     return std::tie(a.x, a.tuple, a.point) <
                            std::tie(b.x, b.tuple, b.point);
                   });
  ReferenceScan ref;
  ref.class_totals.assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t i = 0; i < points.size(); ++i) {
    ref.class_totals[static_cast<size_t>(points[i].cls)] += points[i].mass;
    if (i + 1 == points.size() || points[i + 1].x != points[i].x) {
      ref.xs.push_back(points[i].x);
      ref.cumulative.insert(ref.cumulative.end(), ref.class_totals.begin(),
                            ref.class_totals.end());
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  for (double b : bounds) {
    ref.endpoints.push_back(static_cast<int>(
        std::lower_bound(ref.xs.begin(), ref.xs.end(), b) - ref.xs.begin()));
  }
  return ref;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Byte-equality of a scan with the reference. Mismatching doubles are
// counted, so a failure reports once per scan.
void ExpectSameBytes(const AttributeScan& scan, const ReferenceScan& ref,
                     int num_classes, const std::string& what) {
  ASSERT_EQ(static_cast<size_t>(scan.num_positions()), ref.xs.size()) << what;
  int mismatches = 0;
  for (int i = 0; i < scan.num_positions(); ++i) {
    mismatches += Bits(scan.x(i)) != Bits(ref.xs[static_cast<size_t>(i)]);
    for (int c = 0; c < num_classes; ++c) {
      mismatches +=
          Bits(scan.CumulativeMass(i, c)) !=
          Bits(ref.cumulative[static_cast<size_t>(i * num_classes + c)]);
    }
  }
  for (int c = 0; c < num_classes; ++c) {
    mismatches += Bits(scan.class_totals()[static_cast<size_t>(c)]) !=
                  Bits(ref.class_totals[static_cast<size_t>(c)]);
  }
  EXPECT_EQ(mismatches, 0) << what;
  EXPECT_EQ(scan.endpoint_positions(), ref.endpoints) << what;
}

// Uncertain data of three classes. kContinuous draws Gaussian/uniform
// error pdfs around continuous centres (ties only by accident); kGrid puts
// every pdf on a subset of the integers 0..12, so x ties across tuples are
// the rule.
enum class Values { kContinuous, kGrid };

Dataset RandomDataset(Values values, int tuples, int attributes,
                      uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"a", "b", "c"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = rng.UniformInt(3);
    for (int j = 0; j < attributes; ++j) {
      if (values == Values::kContinuous) {
        const double centre = rng.Gaussian(t.label, 1.0);
        const double width = rng.Uniform(0.5, 2.0);
        const int s = rng.UniformIntRange(1, 12);
        StatusOr<SampledPdf> pdf = rng.Bernoulli(0.5)
                                       ? MakeGaussianErrorPdf(centre, width, s)
                                       : MakeUniformErrorPdf(centre, width, s);
        t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
      } else {
        std::vector<double> xs;
        std::vector<double> masses;
        for (int x = 0; x <= 12; ++x) {
          if (rng.Bernoulli(0.4)) {
            xs.push_back(x);
            masses.push_back(rng.Uniform(0.1, 1.0));
          }
        }
        if (xs.empty()) {
          xs.push_back(rng.UniformInt(13));
          masses.push_back(1.0);
        }
        StatusOr<SampledPdf> pdf =
            SampledPdf::Create(std::move(xs), std::move(masses));
        t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
      }
    }
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

// `root` and the fractional sets of a random tree grown from it by real
// PartitionWorkingSet calls: every set is split at a sample point of one of
// its tuples, down to `depth` levels.
std::vector<WorkingSet> PartitionedSets(const Dataset& ds, WorkingSet root,
                                        int depth, Rng* rng) {
  std::vector<WorkingSet> sets;
  std::vector<std::pair<WorkingSet, int>> pending;
  pending.emplace_back(std::move(root), 0);
  while (!pending.empty()) {
    auto [set, level] = std::move(pending.back());
    pending.pop_back();
    if (!set.empty() && level < depth) {
      const int attribute = rng->UniformInt(ds.num_attributes());
      const FractionalTuple& pivot = set[static_cast<size_t>(
          rng->UniformInt(static_cast<int>(set.size())))];
      const SampledPdf& pdf = ds.tuple(pivot.tuple_index)
                                  .values[static_cast<size_t>(attribute)]
                                  .pdf();
      const double split = pdf.point(rng->UniformInt(pdf.num_points()));
      WorkingSet left;
      WorkingSet right;
      PartitionWorkingSet(ds, set, attribute, split, &left, &right);
      pending.emplace_back(std::move(left), level + 1);
      pending.emplace_back(std::move(right), level + 1);
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

// Scans every set on every attribute two ways, against one shared
// presort with one reused scratch (the builder's path) and with the
// presort-on-the-spot overload, and compares both with the reference.
void CheckAgainstReference(const Dataset& ds,
                           const std::vector<WorkingSet>& sets,
                           const std::string& name) {
  const int num_classes = ds.num_classes();
  const PresortedAxes axes = PresortedAxes::Build(ds, /*pool=*/nullptr);
  ScanScratch scratch;
  for (size_t i = 0; i < sets.size(); ++i) {
    for (int j = 0; j < ds.num_attributes(); ++j) {
      const std::string what =
          name + " set " + std::to_string(i) + " attribute " +
          std::to_string(j);
      const ReferenceScan ref = BruteForceScan(ds, sets[i], j, num_classes);
      ExpectSameBytes(AttributeScan::Build(ds, sets[i], j, axes.axis(j),
                                           num_classes, &scratch),
                      ref, num_classes, what + " (shared axes)");
      ExpectSameBytes(AttributeScan::Build(ds, sets[i], j, num_classes), ref,
                      num_classes, what + " (presorted on the spot)");
    }
  }
}

TEST(ScanEquivalenceTest, FractionalSetsFromPartitioning) {
  for (uint64_t seed : {1, 2, 3}) {
    for (Values values : {Values::kContinuous, Values::kGrid}) {
      Dataset ds = RandomDataset(values, 40, 3, seed);
      Rng rng(seed + 100);
      CheckAgainstReference(
          ds, PartitionedSets(ds, MakeRootWorkingSet(ds), 4, &rng),
          "seed " + std::to_string(seed) +
              (values == Values::kGrid ? " grid" : " continuous"));
    }
  }
}

TEST(ScanEquivalenceTest, BaggedRootsWithZeroWeights) {
  for (uint64_t seed : {4, 5}) {
    for (Values values : {Values::kContinuous, Values::kGrid}) {
      Dataset ds = RandomDataset(values, 40, 2, seed);
      Rng rng(seed + 100);
      // Bootstrap multiplicities: about a third of the tuples never drawn.
      std::vector<double> weights;
      for (int i = 0; i < ds.num_tuples(); ++i) {
        weights.push_back(static_cast<double>(rng.UniformInt(3)));
      }
      weights[0] = 1.0;
      CheckAgainstReference(
          ds,
          PartitionedSets(ds, MakeWeightedRootWorkingSet(ds, weights), 3,
                          &rng),
          "bag seed " + std::to_string(seed));
    }
  }
}

TEST(ScanEquivalenceTest, IntegerGridTies) {
  Dataset ds = RandomDataset(Values::kGrid, 60, 2, 6);
  // Every x is one of 13 integers, so most positions merge several tuples.
  const PresortedAxes axes = PresortedAxes::Build(ds, /*pool=*/nullptr);
  int points = 0;
  for (int i = 0; i < ds.num_tuples(); ++i) {
    points += ds.tuple(i).values[0].pdf().num_points();
  }
  EXPECT_EQ(static_cast<int>(axes.axis(0).size()), points);
  EXPECT_LE(AttributeScan::Build(ds, MakeRootWorkingSet(ds), 0, 3)
                .num_positions(),
            13);
  Rng rng(106);
  CheckAgainstReference(ds,
                        PartitionedSets(ds, MakeRootWorkingSet(ds), 4, &rng),
                        "grid");
}

TEST(ScanEquivalenceTest, PointMassData) {
  // The AVG view: every pdf collapses to a point at its mean. Grid means
  // repeat, so point masses tie too.
  for (Values values : {Values::kContinuous, Values::kGrid}) {
    Dataset ds = RandomDataset(values, 50, 2, 7).ToMeans();
    Rng rng(107);
    CheckAgainstReference(
        ds, PartitionedSets(ds, MakeRootWorkingSet(ds), 4, &rng),
        values == Values::kGrid ? "grid means" : "continuous means");
  }
}

TEST(ScanEquivalenceTest, ConstraintWithoutMassContributesNothing) {
  Dataset ds = RandomDataset(Values::kGrid, 10, 1, 8);
  WorkingSet set = MakeRootWorkingSet(ds);
  // (5.5, 5.75] holds no integer: tuple 0 drops out of the scan.
  set[0].lo[0] = 5.5;
  set[0].hi[0] = 5.75;
  CheckAgainstReference(ds, {set}, "massless constraint");
}

// The rows a split finder reads, against the reference: every end-point
// row, every row a forward sweep from an end-point row reaches (up to and
// including the next end point), and RowsAt at every position.
void ExpectSameRows(const AttributeScan& scan, const ReferenceScan& ref,
                    int num_classes, const std::string& what) {
  ASSERT_EQ(static_cast<size_t>(scan.num_positions()), ref.xs.size()) << what;
  ASSERT_EQ(scan.endpoint_positions(), ref.endpoints) << what;
  const size_t nc = static_cast<size_t>(num_classes);
  int mismatches = 0;
  auto compare = [&](const double* row, int position) {
    const double* want =
        ref.cumulative.data() + static_cast<size_t>(position) * nc;
    for (size_t c = 0; c < nc; ++c) {
      mismatches += Bits(row[c]) != Bits(want[c]);
    }
  };
  const std::vector<int>& endpoints = scan.endpoint_positions();
  for (size_t e = 0; e < endpoints.size(); ++e) {
    const double* row = scan.EndpointRow(e);
    compare(row, endpoints[e]);
    std::vector<double> swept(row, row + nc);
    const int stop = e + 1 < endpoints.size() ? endpoints[e + 1]
                                              : scan.num_positions() - 1;
    for (int p = endpoints[e] + 1; p <= stop; ++p) {
      scan.AccumulatePosition(p, swept.data());
      compare(swept.data(), p);
    }
  }
  std::vector<int> all(static_cast<size_t>(scan.num_positions()));
  std::iota(all.begin(), all.end(), 0);
  const std::vector<double> rows = scan.RowsAt(all);
  for (int p = 0; p < scan.num_positions(); ++p) {
    compare(rows.data() + static_cast<size_t>(p) * nc, p);
  }
  EXPECT_EQ(mismatches, 0) << what;
}

// Scans every set on every attribute over one shared presort with one
// reused scratch, checking both the random-access view and the rows.
void CheckRowsAgainstReference(const Dataset& ds,
                               const std::vector<WorkingSet>& sets,
                               const std::string& name) {
  const int num_classes = ds.num_classes();
  const PresortedAxes axes = PresortedAxes::Build(ds, /*pool=*/nullptr);
  ScanScratch scratch;
  for (size_t i = 0; i < sets.size(); ++i) {
    for (int j = 0; j < ds.num_attributes(); ++j) {
      const std::string what = name + " set " + std::to_string(i) +
                               " attribute " + std::to_string(j);
      const ReferenceScan ref = BruteForceScan(ds, sets[i], j, num_classes);
      const AttributeScan scan = AttributeScan::Build(
          ds, sets[i], j, axes.axis(j), num_classes, &scratch);
      ExpectSameBytes(scan, ref, num_classes, what);
      ExpectSameRows(scan, ref, num_classes, what);
    }
  }
}

TEST(ScanEquivalenceTest, SweptAndEndpointRowsMatchReference) {
  for (uint64_t seed : {11, 12}) {
    for (Values values : {Values::kContinuous, Values::kGrid}) {
      Dataset ds = RandomDataset(values, 40, 2, seed);
      Rng rng(seed + 100);
      CheckRowsAgainstReference(
          ds, PartitionedSets(ds, MakeRootWorkingSet(ds), 4, &rng),
          "seed " + std::to_string(seed) +
              (values == Values::kGrid ? " grid" : " continuous"));
    }
  }
}

TEST(ScanEquivalenceTest, SparseDeepNodeOnLargeAxis) {
  // A deep node: at most three tuples of a 300-tuple axis, so nearly every
  // bitmap word the scan walks is empty. Scans of the whole set before
  // and after check that the shared scratch comes back clean.
  Dataset ds = RandomDataset(Values::kContinuous, 300, 1, 13);
  const WorkingSet root = MakeRootWorkingSet(ds);
  std::vector<WorkingSet> sets = {root};
  Rng rng(113);
  for (int k = 0; k < 8; ++k) {
    WorkingSet set;
    const int size = 1 + k % 3;
    for (int i = 0; i < size; ++i) {
      FractionalTuple ft = root[static_cast<size_t>(
          rng.UniformInt(ds.num_tuples()))];
      bool repeated = false;
      for (const FractionalTuple& other : set) {
        repeated |= other.tuple_index == ft.tuple_index;
      }
      if (repeated) continue;
      const SampledPdf& pdf = ds.tuple(ft.tuple_index).values[0].pdf();
      if (k % 2 == 1 && pdf.num_points() > 2) {
        // Constrain to the interior points, as a deep node would.
        ft.lo[0] = pdf.point(0);
        ft.hi[0] = pdf.point(pdf.num_points() - 2);
        ft.weight = 0.25;
      }
      set.push_back(ft);
    }
    sets.push_back(set);
  }
  sets.push_back(root);
  CheckRowsAgainstReference(ds, sets, "sparse");
}

TEST(ScanEquivalenceTest, TupleKeepingOnePoint) {
  Dataset ds = RandomDataset(Values::kGrid, 12, 1, 14);
  WorkingSet set = MakeRootWorkingSet(ds);
  std::vector<WorkingSet> sets;
  for (size_t t = 0; t < set.size(); ++t) {
    const SampledPdf& pdf = ds.tuple(static_cast<int>(t)).values[0].pdf();
    const int p = pdf.num_points() / 2;
    // (x_p - 0.5, x_p]: grid points are integers, so exactly x_p is kept,
    // and the tuple's first kept point is also its last.
    WorkingSet one = set;
    one[t].lo[0] = pdf.point(p) - 0.5;
    one[t].hi[0] = pdf.point(p);
    sets.push_back(one);
    const AttributeScan scan = AttributeScan::Build(ds, one, 0, 3);
    const std::vector<int>& endpoints = scan.endpoint_positions();
    int position = 0;
    while (scan.x(position) != pdf.point(p)) ++position;
    EXPECT_TRUE(std::binary_search(endpoints.begin(), endpoints.end(),
                                   position))
        << "tuple " << t;
  }
  // Every tuple at once down to a single point.
  WorkingSet all = set;
  for (size_t t = 0; t < all.size(); ++t) {
    const SampledPdf& pdf = ds.tuple(static_cast<int>(t)).values[0].pdf();
    all[t].lo[0] = pdf.point(0) - 0.5;
    all[t].hi[0] = pdf.point(0);
  }
  sets.push_back(all);
  CheckRowsAgainstReference(ds, sets, "one point");
}

TEST(ScanEquivalenceTest, TuplesWithZeroConstrainedMass) {
  Dataset ds = RandomDataset(Values::kGrid, 10, 1, 15);
  WorkingSet set = MakeRootWorkingSet(ds);
  // Tuple 0's constraint lies below all its points, tuple 9's above them,
  // tuple 4's in a gap between integers: none of them keeps a point.
  const SampledPdf& first = ds.tuple(0).values[0].pdf();
  set[0].lo[0] = first.point(0) - 2.0;
  set[0].hi[0] = first.point(0) - 1.0;
  const SampledPdf& last = ds.tuple(9).values[0].pdf();
  set[9].lo[0] = last.point(last.num_points() - 1);
  set[9].hi[0] = last.point(last.num_points() - 1) + 5.0;
  set[4].lo[0] = 6.25;
  set[4].hi[0] = 6.5;
  WorkingSet none = set;
  for (FractionalTuple& ft : none) {
    ft.lo[0] = 20.0;
    ft.hi[0] = 30.0;
  }
  CheckRowsAgainstReference(ds, {set, none}, "massless");
  EXPECT_TRUE(AttributeScan::Build(ds, none, 0, 3).empty());
}

}  // namespace
}  // namespace udt
