// udt::PredictSession — the per-worker serving handle of the prediction
// API. A session borrows an immutable CompiledForest (shared, never copied)
// and owns every piece of mutable state a prediction needs: per-worker
// traversal scratch plus the per-tree output rows the vote aggregation
// consumes in place. Everything is reused call to call, so steady-state
// batch prediction performs zero heap allocations per tuple — the per-tree
// traversals and the vote aggregation all run over preallocated buffers.
//
// One session serves trees and forests alike: Model::Compile() returns a
// one-tree kAverage CompiledForest, whose aggregation (zero, add the one
// tree's row, divide by 1.0) reproduces the tree's distribution exactly.
//
// The intended deployment shape:
//
//   Model model = *Model::Load(path);           // or a ForestModel
//   CompiledForest compiled = model.Compile();  // immutable, share freely
//   // ... one PredictSession per worker thread:
//   PredictSession session(compiled);
//   auto result = session.PredictBatch(tuples);
//
// A session is cheap to construct and NOT thread-safe: give each request
// worker its own. (PredictBatch with num_threads > 1 shards over a
// session-owned persistent worker pool, each worker with its own scratch
// slot — that is safe; two concurrent calls into one session are not.)
//
// Execution model: the first batch with num_threads > 1 creates the
// session's TaskPool (num_threads - 1 workers; the calling thread is the
// remaining worker) and every later batch reuses it — steady-state
// serving spawns zero threads per call. A later batch asking for more
// threads than the pool seats replaces it with a larger one (join idle
// workers, spawn the new set), so traffic with a stable thread count
// builds the pool exactly once. Batches smaller than grain * num_threads
// occupy proportionally fewer workers (PredictOptions::grain); the
// default grain is divided by the tree count, since each tuple carries one
// traversal per tree.

#ifndef UDT_API_PREDICT_SESSION_H_
#define UDT_API_PREDICT_SESSION_H_

#include <memory>
#include <span>
#include <vector>

#include "api/compiled_forest.h"
#include "api/model.h"
#include "common/statusor.h"
#include "common/task_pool.h"
#include "tree/flat_tree.h"

namespace udt {

// Flat batch output: one row-major buffer instead of one vector per tuple.
// Reused across PredictBatchInto calls, so a warm serving loop allocates
// nothing at all.
struct FlatBatchResult {
  // Tuple i's distribution occupies [i * num_classes, (i+1) * num_classes).
  std::vector<double> distributions;
  // Argmax labels, index-aligned with the input batch.
  std::vector<int> labels;
  int num_classes = 0;

  size_t size() const { return labels.size(); }
  std::span<const double> distribution(size_t i) const {
    return std::span<const double>(
        distributions.data() + i * static_cast<size_t>(num_classes),
        static_cast<size_t>(num_classes));
  }
  // Reuse contract: resets everything, including num_classes, so a
  // recycled buffer carries no trace of the previous batch (a serving
  // queue may drain models with different class counts through one
  // buffer). Capacity is retained; a warm buffer stays allocation-free.
  // PredictBatchInto overwrites all three fields anyway, so calling
  // Clear() between drains is belt-and-braces, not a requirement.
  void Clear() {
    distributions.clear();
    labels.clear();
    num_classes = 0;
  }
};

class PredictSession {
 public:
  // Ownership contract: a CompiledForest is a shared handle (one
  // shared_ptr wide), and the session stores its own copy — so the
  // session co-owns the compiled artifact for its whole lifetime. A
  // model registry may retire/drop its reference while this session is
  // mid-batch without dangling anything; the flat trees are freed when
  // the last session (or registry entry) lets go.
  explicit PredictSession(CompiledForest model);

  // Same contract for callers that manage compiled artifacts behind
  // shared_ptr (e.g. a registry handing out snapshots): the pointee's
  // inner handle is copied, so the session stays valid even after
  // `model` itself is reset. `model` must be non-null.
  explicit PredictSession(std::shared_ptr<const CompiledForest> model);

  const CompiledForest& model() const { return model_; }
  int num_classes() const { return model_.num_classes(); }

  // ------------------------------------------------------- single tuple

  // Classifies one tuple into caller storage (num_classes doubles): every
  // tree's flat traversal, votes aggregated in tree order, one final
  // division — bitwise-identical to the source Model's or ForestModel's
  // ClassifyDistribution.
  void ClassifyInto(const UncertainTuple& tuple, double* out);

  // Convenience allocating forms, result-compatible with the Model and
  // ForestModel ones.
  std::vector<double> ClassifyDistribution(const UncertainTuple& tuple);
  int Predict(const UncertainTuple& tuple);

  // -------------------------------------------------------------- batch

  // Classifies a batch, sharded over options.num_threads workers (0 = one
  // per hardware thread, 1 = inline; negative is an InvalidArgument
  // error). Shards write straight into their final slots, so the result is
  // bitwise-identical to the inline loop for every thread count — and to
  // the pointer-tree classification of the model this session was
  // compiled from.
  StatusOr<BatchResult> PredictBatch(std::span<const UncertainTuple> tuples,
                                     const PredictOptions& options = {});
  StatusOr<BatchResult> PredictBatch(const Dataset& data,
                                     const PredictOptions& options = {});

  // Same computation, flat output, no per-tuple allocation: `out` buffers
  // are reused between calls once warm.
  Status PredictBatchInto(std::span<const UncertainTuple> tuples,
                          const PredictOptions& options,
                          FlatBatchResult* out);

  // Gather form for admission queues: the tuples of one micro-batch
  // arrive from different clients and are not contiguous, so the batch
  // is a span of pointers (each non-null, alive until the call returns).
  // Identical sharding, scratch and output contract to the contiguous
  // overload — results are byte-identical to classifying each tuple
  // alone.
  Status PredictBatchInto(std::span<const UncertainTuple* const> tuples,
                          const PredictOptions& options,
                          FlatBatchResult* out);

  // ------------------------------------------------------ introspection

  // Persistent executor workers this session has created: 0 until the
  // first batch with num_threads > 1, then stable across calls (it only
  // grows when a batch requests more threads than the pool seats). Tests
  // and ops dashboards use this to verify the zero-spawn steady state.
  int executor_workers() const { return pool_ ? pool_->num_workers() : 0; }

 private:
  // Per-worker mutable state: traversal scratch shared by all trees, the
  // row one tree's distribution lands in before aggregation (scalar path),
  // and the shard-wide per-tree row block of the batch path.
  struct WorkerScratch {
    FlatTraversalScratch traversal;
    std::vector<double> tree_row;
    std::vector<double> tree_rows;
    std::vector<double*> tree_row_ptrs;
  };

  // Shared body of every batch entry point; `tuple_at(i)` yields a const
  // UncertainTuple& for batch position i. Returns the scheduled width
  // (BatchResult::num_threads_used). Defined in the .cc — every
  // instantiation lives there.
  template <typename TupleAt>
  StatusOr<int> PredictBatchIntoImpl(size_t n, TupleAt tuple_at,
                                     const PredictOptions& options,
                                     FlatBatchResult* out);

  // Scratch slot for worker `index`, created on first use, reused after.
  WorkerScratch* ScratchFor(size_t index);

  // The session pool sized for `num_threads` (nullptr for inline
  // execution), with every scratch slot the pool's workers could touch
  // pre-created.
  TaskPool* EnsureExecutor(int num_threads);

  void CheckTuple(const UncertainTuple& tuple) const;

  // The aggregation kernel all single-tuple entry points share.
  void ClassifyWith(WorkerScratch* scratch, const UncertainTuple& tuple,
                    double* out);

  // Batch twin of ClassifyWith: classifies tuples[0..count) through every
  // tree, tree-outer, then aggregates votes per tuple in tree order — per
  // tuple the identical operation sequence, so rows are bitwise-identical
  // to ClassifyWith.
  void ClassifyBatchWith(WorkerScratch* scratch,
                         const UncertainTuple* const* tuples,
                         double* const* rows, size_t count);

  CompiledForest model_;
  std::vector<std::unique_ptr<WorkerScratch>> scratch_;
  // Lazily created at the first multi-threaded batch, then reused for
  // every later call (see "Execution model" above).
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace udt

#endif  // UDT_API_PREDICT_SESSION_H_
