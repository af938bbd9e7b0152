#include "split/split_finder.h"

#include <cmath>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/task_pool.h"
#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {

namespace {
using split_internal::EvalBuffers;

// Scores within this distance are treated as tied and broken by attribute,
// then split point, keeping every finder's choice deterministic.
constexpr double kScoreTieEpsilon = 1e-12;

// Folds `candidate` into `best` under the deterministic tie-break order.
void MergeCandidate(const SplitCandidate& candidate, SplitCandidate* best) {
  if (candidate.valid && (!best->valid || candidate.BetterThan(*best))) {
    *best = candidate;
  }
}

// Runs fn(0, .), ..., fn(n-1, .): in index order when `pool` is null,
// through the pool's shared ParallelFor primitive otherwise (the same
// executor the serving sessions run on — one parallel-loop mechanism for
// training and serving). Each loop slot passes its own entry of `buffers`
// (one per slot), so the scratch is reused across the attributes a slot
// runs and never shared. The callbacks must write to disjoint state; the
// fixed-order reductions after each loop keep the result
// schedule-independent.
void ForEachAttribute(TaskPool* pool, int n, std::vector<EvalBuffers>* buffers,
                      const std::function<void(int, EvalBuffers*)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (int j = 0; j < n; ++j) fn(j, &buffers->front());
    return;
  }
  pool->ParallelFor(static_cast<size_t>(n), /*grain=*/1,
                    [&fn, buffers](int slot, size_t begin, size_t end) {
                      for (size_t j = begin; j < end; ++j) {
                        fn(static_cast<int>(j),
                           &(*buffers)[static_cast<size_t>(slot)]);
                      }
                    });
}
}  // namespace

const char* SplitAlgorithmToString(SplitAlgorithm algorithm) {
  switch (algorithm) {
    case SplitAlgorithm::kAvg:
      return "AVG";
    case SplitAlgorithm::kUdt:
      return "UDT";
    case SplitAlgorithm::kUdtBp:
      return "UDT-BP";
    case SplitAlgorithm::kUdtLp:
      return "UDT-LP";
    case SplitAlgorithm::kUdtGp:
      return "UDT-GP";
    case SplitAlgorithm::kUdtEs:
      return "UDT-ES";
  }
  return "unknown";
}

SplitCounters& SplitCounters::operator+=(const SplitCounters& other) {
  dispersion_evaluations += other.dispersion_evaluations;
  bound_evaluations += other.bound_evaluations;
  candidates_pruned += other.candidates_pruned;
  intervals_total += other.intervals_total;
  intervals_pruned_empty += other.intervals_pruned_empty;
  intervals_pruned_homogeneous += other.intervals_pruned_homogeneous;
  intervals_pruned_linear += other.intervals_pruned_linear;
  intervals_pruned_by_bound += other.intervals_pruned_by_bound;
  return *this;
}

SplitCandidate SplitFinder::SeedAttribute(
    const split_internal::AttributeContext& /*ctx*/,
    const SplitScorer& /*scorer*/, const SplitOptions& /*options*/,
    SplitCounters* /*counters*/,
    split_internal::EvalBuffers* /*buffers*/) const {
  return SplitCandidate();
}

SplitCandidate SplitFinder::FindBestSplit(const Dataset& data,
                                          const WorkingSet& set,
                                          const SplitScorer& scorer,
                                          const SplitOptions& options,
                                          SplitCounters* counters,
                                          TaskPool* pool,
                                          const PresortedAxes* axes) const {
  const int num_attributes = data.num_attributes();
  const int num_classes = data.num_classes();
  const bool seeded = NeedsGlobalSeed();

  if (pool == nullptr && !seeded) {
    // Serial local finder (UDT/AVG/BP/LP): one attribute at a time keeps a
    // single scan alive — the paper's low-memory regime.
    SplitCandidate best;
    SplitCandidate no_seed;
    EvalBuffers buffers;
    for (int j = 0; j < num_attributes; ++j) {
      if (!options.AttributeAllowed(j)) continue;
      split_internal::AttributeContext ctx =
          split_internal::BuildContextForAttribute(
              data, set, j, axes, options, num_classes, &buffers);
      if (ctx.scan.empty()) continue;
      MergeCandidate(
          SearchAttribute(ctx, scorer, options, no_seed, counters, &buffers),
          &best);
    }
    return best;
  }

  // Per-attribute slots: every task writes only its own entry, and all
  // reductions below run in ascending attribute order.
  struct AttributeSlot {
    split_internal::AttributeContext ctx;
    SplitCandidate seed;
    SplitCandidate best;
    SplitCounters counters;
  };
  std::vector<AttributeSlot> slots(static_cast<size_t>(num_attributes));
  std::vector<EvalBuffers> buffers(
      pool != nullptr ? static_cast<size_t>(pool->num_slots()) : 1);

  auto scan_attribute = [&](int j, EvalBuffers* scratch) {
    if (!options.AttributeAllowed(j)) return;  // slot stays empty
    AttributeSlot& slot = slots[static_cast<size_t>(j)];
    slot.ctx = split_internal::BuildContextForAttribute(
        data, set, j, axes, options, num_classes, scratch);
    if (slot.ctx.scan.empty()) return;
    if (seeded) {
      slot.seed =
          SeedAttribute(slot.ctx, scorer, options, &slot.counters, scratch);
    } else {
      // Local finders need no cross-attribute phase: search immediately
      // and release the scan.
      SplitCandidate no_seed;
      slot.best = SearchAttribute(slot.ctx, scorer, options, no_seed,
                                  &slot.counters, scratch);
      slot.ctx = split_internal::AttributeContext();
    }
  };
  ForEachAttribute(pool, num_attributes, &buffers, scan_attribute);

  SplitCandidate global_seed;
  if (seeded) {
    for (const AttributeSlot& slot : slots) {
      MergeCandidate(slot.seed, &global_seed);
    }
    auto search_attribute = [&](int j, EvalBuffers* scratch) {
      AttributeSlot& slot = slots[static_cast<size_t>(j)];
      if (slot.ctx.scan.empty()) return;
      slot.best = SearchAttribute(slot.ctx, scorer, options, global_seed,
                                  &slot.counters, scratch);
      slot.ctx = split_internal::AttributeContext();
    };
    ForEachAttribute(pool, num_attributes, &buffers, search_attribute);
  }

  SplitCandidate best = global_seed;
  for (const AttributeSlot& slot : slots) {
    MergeCandidate(slot.best, &best);
  }
  if (counters != nullptr) {
    for (const AttributeSlot& slot : slots) {
      *counters += slot.counters;
    }
  }
  return best;
}

bool SplitCandidate::BetterThan(const SplitCandidate& other) const {
  UDT_DCHECK(valid);
  if (!other.valid) return true;
  if (score < other.score - kScoreTieEpsilon) return true;
  if (score > other.score + kScoreTieEpsilon) return false;
  if (attribute != other.attribute) return attribute < other.attribute;
  return split_point < other.split_point;
}

std::unique_ptr<SplitFinder> MakeSplitFinder(SplitAlgorithm algorithm) {
  switch (algorithm) {
    case SplitAlgorithm::kAvg:
      return split_internal::MakeExhaustiveFinder("AVG");
    case SplitAlgorithm::kUdt:
      return split_internal::MakeExhaustiveFinder("UDT");
    case SplitAlgorithm::kUdtBp:
      return split_internal::MakeBpFinder();
    case SplitAlgorithm::kUdtLp:
      return split_internal::MakeLpFinder();
    case SplitAlgorithm::kUdtGp:
      return split_internal::MakeGpFinder();
    case SplitAlgorithm::kUdtEs:
      return split_internal::MakeEsFinder();
  }
  UDT_CHECK(false);
  return nullptr;
}

}  // namespace udt
