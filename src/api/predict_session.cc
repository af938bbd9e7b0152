#include "api/predict_session.h"

#include <algorithm>
#include <utility>

#include "api/forest.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "tree/classify.h"

namespace udt {

namespace {

const CompiledForest& DerefModel(
    const std::shared_ptr<const CompiledForest>& model) {
  UDT_CHECK(model != nullptr);
  return *model;
}

// Default micro-batch grain: the minimum tuples one worker shard is worth
// when PredictOptions::grain is 0. Small batches then occupy
// ceil(n / grain) workers instead of fanning single tuples across the
// whole pool.
constexpr size_t kDefaultShardGrain = 8;

// Resolves PredictOptions::grain: an explicit request wins, otherwise the
// default grain divided by the tree count (each tuple carries one
// traversal per tree), never below one tuple.
size_t EffectiveShardGrain(size_t requested, size_t num_trees) {
  if (requested > 0) return requested;
  return std::max<size_t>(
      1, kDefaultShardGrain / std::max<size_t>(1, num_trees));
}

// Resolves a PredictOptions::num_threads request against a batch size:
// negative is an InvalidArgument error, 0 means one per hardware thread
// (TaskPool::EffectiveConcurrency owns that resolution rule, including
// the hardware_concurrency() == 0 fallback, so the training and serving
// paths cannot drift), and the result is clamped to [1, batch_size]. The
// clamp compares in size_t space: narrowing batch_size to int first would
// overflow for batches beyond INT_MAX tuples.
StatusOr<int> ResolveThreads(int num_threads, size_t batch_size) {
  if (num_threads < 0) {
    return Status::InvalidArgument(
        StrFormat("PredictOptions::num_threads must be >= 0, got %d "
                  "(0 = one per hardware thread)",
                  num_threads));
  }
  if (num_threads == 0) {
    num_threads = TaskPool::EffectiveConcurrency(0);
  }
  if (batch_size < static_cast<size_t>(num_threads)) {
    num_threads = static_cast<int>(batch_size);
  }
  return std::max(num_threads, 1);
}

// Runs fn(slot, begin, end) over contiguous shards of [0, n), using the
// calling thread plus at most num_threads - 1 workers of `pool`. Shards
// write only into their own index-addressed slices, so the output is
// byte-identical for every thread count, pool size and grain. With
// num_threads == 1 (or no pool) the whole range runs inline under slot 0
// — no locks, no wakeups. Returns the scheduled width (see
// TaskPool::ParallelFor): the thread count the batch actually fanned out
// to after grain clamping, which can be less than num_threads for small
// batches.
template <typename Fn>
int ForEachShard(TaskPool* pool, size_t n, int num_threads, size_t grain,
                 Fn fn) {
  if (pool == nullptr || num_threads <= 1) {
    fn(0, size_t{0}, n);
    return 1;
  }
  return pool->ParallelFor(n, grain, num_threads, fn);
}

}  // namespace

PredictSession::PredictSession(CompiledForest model)
    : model_(std::move(model)) {}

PredictSession::PredictSession(std::shared_ptr<const CompiledForest> model)
    : PredictSession(DerefModel(model)) {}

PredictSession::WorkerScratch* PredictSession::ScratchFor(size_t index) {
  while (scratch_.size() <= index) {
    auto scratch = std::make_unique<WorkerScratch>();
    scratch->tree_row.resize(static_cast<size_t>(num_classes()));
    scratch_.push_back(std::move(scratch));
  }
  return scratch_[index].get();
}

TaskPool* PredictSession::EnsureExecutor(int num_threads) {
  if (num_threads <= 1) return nullptr;
  const int needed_workers = num_threads - 1;
  if (pool_ == nullptr || pool_->num_workers() < needed_workers) {
    pool_.reset();  // join the smaller pool before spawning the new one
    pool_ = std::make_unique<TaskPool>(needed_workers);
  }
  // Scratch must exist before workers can touch it: growing scratch_ is
  // not safe concurrently.
  for (int s = 0; s < pool_->num_slots(); ++s) {
    ScratchFor(static_cast<size_t>(s));
  }
  return pool_.get();
}

void PredictSession::CheckTuple(const UncertainTuple& tuple) const {
  UDT_CHECK(tuple.values.size() ==
            static_cast<size_t>(model_.schema().num_attributes()));
}

void PredictSession::ClassifyWith(WorkerScratch* scratch,
                                  const UncertainTuple& tuple, double* out) {
  const int k = num_classes();
  const bool averaging = model_.kind() == ModelKind::kAveraging;
  const ForestVote vote = model_.vote();
  for (int c = 0; c < k; ++c) out[c] = 0.0;
  // Tree order and the single final division replay the pointer path's
  // float sequence exactly (ForestModel::ClassifyDistribution).
  for (const FlatTree& tree : model_.trees()) {
    if (averaging) {
      ClassifyFlatMeans(tree, tuple, &scratch->traversal,
                        scratch->tree_row.data());
    } else {
      ClassifyFlat(tree, tuple, &scratch->traversal,
                   scratch->tree_row.data());
    }
    AccumulateForestVote(vote, scratch->tree_row.data(), k, out);
  }
  const double trees = static_cast<double>(model_.num_trees());
  for (int c = 0; c < k; ++c) out[c] /= trees;
}

void PredictSession::ClassifyBatchWith(WorkerScratch* scratch,
                                       const UncertainTuple* const* tuples,
                                       double* const* rows, size_t count) {
  const int k = num_classes();
  const bool averaging = model_.kind() == ModelKind::kAveraging;
  const ForestVote vote = model_.vote();
  for (size_t i = 0; i < count; ++i) {
    std::fill(rows[i], rows[i] + k, 0.0);
  }
  scratch->tree_rows.resize(count * static_cast<size_t>(k));
  std::vector<double*>& tree_rows = scratch->tree_row_ptrs;
  tree_rows.resize(count);
  for (size_t i = 0; i < count; ++i) {
    tree_rows[i] = scratch->tree_rows.data() + i * static_cast<size_t>(k);
  }
  // Tree-outer: one pass per tree over the whole shard, votes folded in
  // per tuple before the next tree. Any single tuple still sees zero →
  // per-tree accumulation in tree order → one final division, exactly
  // ClassifyWith's float sequence. A means walk never fragments, so the
  // scalar AVG kernel per tuple beats any batch form of it; the full UDT
  // traversal runs the level-synchronous batch kernel.
  for (const FlatTree& tree : model_.trees()) {
    if (averaging) {
      for (size_t i = 0; i < count; ++i) {
        ClassifyFlatMeans(tree, *tuples[i], &scratch->traversal,
                          tree_rows[i]);
      }
    } else {
      ClassifyFlatBatch(tree, tuples, tree_rows.data(), count,
                        &scratch->traversal);
    }
    for (size_t i = 0; i < count; ++i) {
      AccumulateForestVote(vote, tree_rows[i], k, rows[i]);
    }
  }
  const double trees = static_cast<double>(model_.num_trees());
  for (size_t i = 0; i < count; ++i) {
    for (int c = 0; c < k; ++c) rows[i][c] /= trees;
  }
}

void PredictSession::ClassifyInto(const UncertainTuple& tuple, double* out) {
  CheckTuple(tuple);
  ClassifyWith(ScratchFor(0), tuple, out);
}

std::vector<double> PredictSession::ClassifyDistribution(
    const UncertainTuple& tuple) {
  std::vector<double> out(static_cast<size_t>(num_classes()));
  ClassifyInto(tuple, out.data());
  return out;
}

int PredictSession::Predict(const UncertainTuple& tuple) {
  return ArgMax(ClassifyDistribution(tuple));
}

template <typename TupleAt>
StatusOr<int> PredictSession::PredictBatchIntoImpl(
    size_t n, TupleAt tuple_at, const PredictOptions& options,
    FlatBatchResult* out) {
  UDT_CHECK(out != nullptr);
  UDT_RETURN_NOT_OK(options.Validate());
  const size_t k = static_cast<size_t>(num_classes());
  UDT_ASSIGN_OR_RETURN(int num_threads,
                       ResolveThreads(options.num_threads, n));

  out->num_classes = static_cast<int>(k);
  out->distributions.resize(n * k);
  out->labels.resize(n);

  auto classify_range = [&](int worker, size_t begin, size_t end) {
    WorkerScratch* scratch = ScratchFor(static_cast<size_t>(worker));
    const size_t count = end - begin;
    std::vector<const UncertainTuple*>& tp =
        scratch->traversal.batch.tuple_ptrs;
    std::vector<double*>& rp = scratch->traversal.batch.row_ptrs;
    tp.resize(count);
    rp.resize(count);
    for (size_t i = 0; i < count; ++i) {
      tp[i] = &tuple_at(begin + i);
      rp[i] = out->distributions.data() + (begin + i) * k;
    }
    ClassifyBatchWith(scratch, tp.data(), rp.data(), count);
    for (size_t i = begin; i < end; ++i) {
      const double* row = out->distributions.data() + i * k;
      int best = 0;
      for (size_t c = 1; c < k; ++c) {
        if (row[c] > row[static_cast<size_t>(best)]) {
          best = static_cast<int>(c);
        }
      }
      out->labels[i] = best;
    }
  };

  for (size_t i = 0; i < n; ++i) CheckTuple(tuple_at(i));

  const size_t grain = EffectiveShardGrain(
      options.grain, static_cast<size_t>(model_.num_trees()));
  return ForEachShard(EnsureExecutor(num_threads), n, num_threads, grain,
                      classify_range);
}

Status PredictSession::PredictBatchInto(
    std::span<const UncertainTuple> tuples, const PredictOptions& options,
    FlatBatchResult* out) {
  auto tuple_at = [&tuples](size_t i) -> const UncertainTuple& {
    return tuples[i];
  };
  return PredictBatchIntoImpl(tuples.size(), tuple_at, options, out).status();
}

Status PredictSession::PredictBatchInto(
    std::span<const UncertainTuple* const> tuples,
    const PredictOptions& options, FlatBatchResult* out) {
  for (const UncertainTuple* tuple : tuples) UDT_CHECK(tuple != nullptr);
  auto tuple_at = [&tuples](size_t i) -> const UncertainTuple& {
    return *tuples[i];
  };
  return PredictBatchIntoImpl(tuples.size(), tuple_at, options, out).status();
}

StatusOr<BatchResult> PredictSession::PredictBatch(
    std::span<const UncertainTuple> tuples, const PredictOptions& options) {
  WallTimer batch_timer;
  // The flat path computes the rows; this form only re-homes each one in
  // its own vector.
  auto tuple_at = [&tuples](size_t i) -> const UncertainTuple& {
    return tuples[i];
  };
  FlatBatchResult flat;
  UDT_ASSIGN_OR_RETURN(
      int width, PredictBatchIntoImpl(tuples.size(), tuple_at, options, &flat));
  BatchResult result;
  result.distributions.reserve(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    std::span<const double> row = flat.distribution(i);
    result.distributions.emplace_back(row.begin(), row.end());
  }
  result.labels = std::move(flat.labels);
  result.num_threads_used = width;
  result.total_seconds = batch_timer.ElapsedSeconds();
  return result;
}

StatusOr<BatchResult> PredictSession::PredictBatch(
    const Dataset& data, const PredictOptions& options) {
  return PredictBatch(std::span<const UncertainTuple>(data.tuples().data(),
                                                      data.tuples().size()),
                      options);
}

}  // namespace udt
