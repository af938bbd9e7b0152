// BatchingQueue: results byte-identical to a direct session, coalescing
// (N concurrent submits -> at most ceil(N/max_batch) drains),
// timeout-triggered partial batches, graceful shutdown (drain, then
// reject-after-close), bounded-admission backpressure, and the
// result-buffer reuse contracts the queue depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "api/trainer.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "serve/servable.h"

namespace udt {
namespace serve {
namespace {

Dataset NumericDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 1.5, 1.0), 1.2, 8);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Servable TrainServable(uint64_t seed) {
  auto model = Trainer().TrainUdt(NumericDataset(90, 2, seed));
  UDT_CHECK(model.ok());
  return Servable(model->Compile());
}

// A provider that can be held shut: while closed, the drainer blocks
// inside the provider call (after it has taken a batch), which lets tests
// stage deterministic queue states.
class GatedProvider {
 public:
  explicit GatedProvider(ModelHandle handle) : handle_(std::move(handle)) {}

  BatchingQueue::SnapshotProvider AsProvider() {
    return [this] {
      MutexLock lock(&mu_);
      ++entered_;
      cv_.NotifyAll();
      while (!open_) cv_.Wait(lock);
      return handle_;
    };
  }

  void Open() {
    MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }

  // Blocks until the drainer is parked inside the provider (i.e. it has
  // taken a batch and the pending queue is at its post-take size).
  void AwaitEntered(int times) {
    MutexLock lock(&mu_);
    while (entered_ < times) cv_.Wait(lock);
  }

 private:
  ModelHandle handle_;
  Mutex mu_;
  CondVar cv_;
  int entered_ UDT_GUARDED_BY(mu_) = 0;
  bool open_ UDT_GUARDED_BY(mu_) = false;
};

ModelHandle MakeHandle(uint64_t seed) {
  return std::make_shared<const RegisteredModel>(
      RegisteredModel{"test", 1, TrainServable(seed)});
}

TEST(BatchingQueueTest, ResultsByteIdenticalToDirectSession) {
  Dataset pool = NumericDataset(48, 2, 7);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(1)), 1u);

  // Direct reference over the same artifact.
  ServeSession direct(registry.Resolve("prod")->servable);
  FlatBatchResult reference;
  ASSERT_TRUE(direct
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &reference)
                  .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);

  BatchingConfig config;
  config.max_batch = 16;
  config.max_delay_us = 500;
  BatchingQueue queue(&registry, "prod", config);

  std::vector<std::future<ServeResult>> futures;
  for (const UncertainTuple& tuple : pool.tuples()) {
    futures.push_back(queue.Submit(&tuple));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.label, reference.labels[i]);
    ASSERT_EQ(result.distribution.size(), k);
    EXPECT_EQ(std::memcmp(result.distribution.data(),
                          reference.distribution(i).data(),
                          k * sizeof(double)),
              0);
    EXPECT_EQ(result.model_name, "prod");
    EXPECT_EQ(result.model_version, 1u);
  }
  queue.Close();
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.submitted, pool.tuples().size());
  EXPECT_EQ(stats.served, pool.tuples().size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(BatchingQueueTest, GatherBatchMatchesContiguousBatch) {
  // The pointer-span session entry point the queue drains through, checked
  // directly: scattered pointers vs the contiguous span, byte-identical.
  Dataset pool = NumericDataset(24, 2, 9);
  Servable servable = TrainServable(2);
  ServeSession session(servable);

  FlatBatchResult contiguous;
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &contiguous)
                  .ok());

  // Reversed pointer order, so gather index != pool index.
  std::vector<const UncertainTuple*> ptrs;
  for (size_t i = pool.tuples().size(); i-- > 0;) {
    ptrs.push_back(&pool.tuples()[i]);
  }
  FlatBatchResult gathered;
  PredictOptions two_threads;
  two_threads.num_threads = 2;
  ASSERT_TRUE(session
                  .PredictBatchInto(std::span<const UncertainTuple* const>(
                                        ptrs.data(), ptrs.size()),
                                    two_threads, &gathered)
                  .ok());

  const size_t n = pool.tuples().size();
  const size_t k = static_cast<size_t>(contiguous.num_classes);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(gathered.distribution(i).data(),
                          contiguous.distribution(n - 1 - i).data(),
                          k * sizeof(double)),
              0);
    EXPECT_EQ(gathered.labels[i], contiguous.labels[n - 1 - i]);
  }
}

TEST(BatchingQueueTest, CoalescesConcurrentSubmitsIntoMicroBatches) {
  Dataset pool = NumericDataset(16, 2, 11);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(3)), 1u);

  BatchingConfig config;
  config.max_batch = 16;
  // A deadline far beyond the submission burst: a drain below max_batch
  // would need the machine to stall for a full second mid-test.
  config.max_delay_us = 1'000'000;
  BatchingQueue queue(&registry, "prod", config);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;  // 64 total = 4 full micro-batches
  std::vector<std::vector<std::future<ServeResult>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kPerClient; ++j) {
        futures[c].push_back(
            queue.Submit(&pool.tuple((c * kPerClient + j) % 16)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (auto& per_client : futures) {
    for (auto& future : per_client) {
      EXPECT_TRUE(future.get().status.ok());
    }
  }

  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.served, 64u);
  EXPECT_LE(stats.drains,
            64u / 16u);  // <= ceil(N / max_batch) micro-batches
  EXPECT_LE(stats.max_drain, 16u);
  EXPECT_GE(stats.max_drain, 2u);  // something actually coalesced
}

TEST(BatchingQueueTest, TimeoutServesPartialBatch) {
  Dataset pool = NumericDataset(4, 2, 13);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(4)), 1u);

  BatchingConfig config;
  config.max_batch = 64;  // never filled by 3 requests
  config.max_delay_us = 2000;
  BatchingQueue queue(&registry, "prod", config);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(queue.Submit(&pool.tuple(i)));
  for (auto& future : futures) {
    // Completes via the max_delay deadline, long before any test timeout.
    EXPECT_TRUE(future.get().status.ok());
  }
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.served, 3u);
  EXPECT_GE(stats.drains, 1u);
  EXPECT_LE(stats.max_drain, 3u);
}

TEST(BatchingQueueTest, CloseDrainsAdmittedThenRejects) {
  Dataset pool = NumericDataset(8, 2, 15);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(5)), 1u);

  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 10'000'000;  // 10s: only shutdown can drain these
  auto queue = std::make_unique<BatchingQueue>(&registry, "prod", config);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(queue->Submit(&pool.tuple(i)));
  }
  queue->Close();  // must serve the 5 admitted requests, not strand them
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }

  ServeResult rejected = queue->Submit(&pool.tuple(5)).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);

  BatchingQueue::Stats stats = queue->stats();
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.rejected, 1u);
  queue.reset();  // double-Close via destructor must be safe
}

TEST(BatchingQueueTest, BoundedAdmissionRejectsOverflowWithUnavailable) {
  Dataset pool = NumericDataset(8, 2, 17);
  GatedProvider gate(MakeHandle(6));

  BatchingConfig config;
  config.max_batch = 1;
  config.max_queue = 4;
  config.max_delay_us = 0;
  BatchingQueue queue(gate.AsProvider(), config);

  // First submit is taken by the drainer, which then parks inside the
  // gated provider — the pending queue is empty again.
  std::vector<std::future<ServeResult>> futures;
  futures.push_back(queue.Submit(&pool.tuple(0)));
  gate.AwaitEntered(1);

  // Fill the admission bound while the drainer is parked...
  for (int i = 1; i <= 4; ++i) {
    futures.push_back(queue.Submit(&pool.tuple(i)));
  }
  EXPECT_EQ(queue.pending(), 4u);

  // ...and the next submit must shed load, immediately and inline.
  ServeResult overflow = queue.Submit(&pool.tuple(5)).get();
  EXPECT_EQ(overflow.status.code(), StatusCode::kUnavailable);

  gate.Open();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(BatchingQueueTest, NoLiveVersionFailsRequestsAsUnavailable) {
  Dataset pool = NumericDataset(4, 2, 19);
  ModelRegistry registry;  // nothing published
  BatchingConfig config;
  config.max_delay_us = 500;
  BatchingQueue queue(&registry, "prod", config);

  ServeResult result = queue.Submit(&pool.tuple(0)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(BatchingQueueTest, CallbackFormCompletesOnce) {
  Dataset pool = NumericDataset(4, 2, 21);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(8)), 1u);
  BatchingConfig config;
  config.max_delay_us = 500;
  BatchingQueue queue(&registry, "prod", config);

  std::promise<ServeResult> done;
  std::atomic<int> calls{0};
  queue.SubmitWithCallback(&pool.tuple(0), [&](ServeResult result) {
    ++calls;
    done.set_value(std::move(result));
  });
  ServeResult result = done.get_future().get();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(calls.load(), 1);
}

// The reuse contracts the queue (and any serving loop) recycles result
// buffers under.
TEST(BatchingQueueTest, TopKOrdersClassesByProbabilityTiesToLowestId) {
  ModelHandle handle = MakeHandle(31);
  BatchingConfig config;
  config.predict.top_k = 3;
  BatchingQueue queue([handle] { return handle; }, config);

  Dataset pool = NumericDataset(24, 2, 32);
  for (const UncertainTuple& tuple : pool.tuples()) {
    ServeResult result = queue.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.top_classes.size(), 3u);
    EXPECT_EQ(result.top_classes[0], result.label);
    for (size_t i = 1; i < result.top_classes.size(); ++i) {
      const int prev = result.top_classes[i - 1];
      const int cur = result.top_classes[i];
      const double p_prev = result.distribution[static_cast<size_t>(prev)];
      const double p_cur = result.distribution[static_cast<size_t>(cur)];
      // Strictly descending probability; equal probabilities must come
      // out in ascending class-id order.
      EXPECT_TRUE(p_prev > p_cur || (p_prev == p_cur && prev < cur))
          << "rank " << i << ": class " << prev << " (p=" << p_prev
          << ") before class " << cur << " (p=" << p_cur << ")";
    }
  }
}

TEST(BatchingQueueTest, AbstainFlagHonoursConfiguredThreshold) {
  ModelHandle handle = MakeHandle(33);
  BatchingConfig config;
  config.predict.abstain_threshold = 0.99;
  BatchingQueue queue([handle] { return handle; }, config);

  Dataset pool = NumericDataset(32, 2, 34);
  int abstained = 0;
  for (const UncertainTuple& tuple : pool.tuples()) {
    ServeResult result = queue.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.abstained, result.confidence < 0.99);
    // The label is still reported — abstention is advice, not censorship.
    EXPECT_GE(result.label, 0);
    if (result.abstained) ++abstained;
  }
  EXPECT_EQ(queue.stats().served, 32u);
  (void)abstained;  // data-dependent; the per-result invariant is the test
}

TEST(BatchingQueueTest, ResponseTapSeesOkResponsesButNeverShedOnes) {
  GatedProvider gate(MakeHandle(35));
  BatchingConfig config;
  config.max_batch = 1;
  config.max_queue = 2;
  std::atomic<int> tapped{0};
  config.response_tap = [&tapped](const ServeResult& result) {
    ASSERT_TRUE(result.status.ok());
    ASSERT_FALSE(result.distribution.empty());
    tapped.fetch_add(1, std::memory_order_relaxed);
  };
  BatchingQueue queue(gate.AsProvider(), config);

  Dataset pool = NumericDataset(4, 2, 36);
  // First submit is taken by the drainer, which then parks inside the
  // closed provider; the next two fill the bounded queue.
  auto f0 = queue.Submit(&pool.tuple(0));
  gate.AwaitEntered(1);
  auto f1 = queue.Submit(&pool.tuple(1));
  auto f2 = queue.Submit(&pool.tuple(2));
  // Admission is full: this one is shed and must never reach the tap.
  ServeResult shed = queue.Submit(&pool.tuple(3)).get();
  EXPECT_FALSE(shed.status.ok());

  gate.Open();
  EXPECT_TRUE(f0.get().status.ok());
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  queue.Close();
  EXPECT_EQ(tapped.load(), 3);
  EXPECT_EQ(queue.stats().rejected, 1u);
}

TEST(ResultReuseTest, BatchResultClearResetsScalarsAndVectors) {
  Dataset pool = NumericDataset(32, 2, 23);
  Servable servable = TrainServable(9);
  PredictSession session(servable);

  PredictOptions options;
  options.num_threads = 2;
  auto result = session.PredictBatch(
      std::span<const UncertainTuple>(pool.tuples().data(),
                                      pool.tuples().size()),
      options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->distributions.empty());
  ASSERT_GE(result->num_threads_used, 1);
  ASSERT_GT(result->total_seconds, 0.0);

  result->Clear();
  EXPECT_TRUE(result->distributions.empty());
  EXPECT_TRUE(result->labels.empty());
  EXPECT_EQ(result->total_seconds, 0.0);
  EXPECT_EQ(result->num_threads_used, 1);
}

TEST(ResultReuseTest, FlatBatchResultClearLeavesNoTraceOfPreviousBatch) {
  Dataset pool = NumericDataset(16, 2, 25);
  Servable servable = TrainServable(10);
  ServeSession session(servable);

  FlatBatchResult flat;
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &flat)
                  .ok());
  ASSERT_EQ(flat.size(), pool.tuples().size());
  ASSERT_GT(flat.num_classes, 0);

  flat.Clear();
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_TRUE(flat.distributions.empty());
  EXPECT_EQ(flat.num_classes, 0);

  // A recycled buffer serves a smaller batch with no stale rows visible.
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(), 3),
                      PredictOptions{}, &flat)
                  .ok());
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.distributions.size(),
            3u * static_cast<size_t>(flat.num_classes));
}

// The queue's completions run on the drainer thread; callers that need to
// rendezvous with one use exactly the udt::Mutex/CondVar idiom the queue
// itself is built on (common/mutex.h). This case drives both wrapper
// outcomes end to end against a live queue: WaitFor must report false
// while the drainer is still holding the request (10s deadline, batch
// never fills), then true once Close() forces the drain and the callback
// notifies.

TEST(BatchingQueueTest, CallbackRendezvousExercisesCondVarTimeoutAndWake) {
  Dataset pool = NumericDataset(4, 2, 27);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(12)), 1u);

  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 10'000'000;  // 10s: only Close() can drain this
  BatchingQueue queue(&registry, "prod", config);

  Mutex mu;
  CondVar cv;
  bool served UDT_GUARDED_BY(mu) = false;
  Status served_status UDT_GUARDED_BY(mu);
  queue.SubmitWithCallback(&pool.tuple(0), [&](ServeResult result) {
    MutexLock lock(&mu);
    served = true;
    served_status = result.status;
    cv.NotifyOne();
  });

  {
    MutexLock lock(&mu);
    // Nothing can have served yet: the wrapper's timeout path must fire.
    EXPECT_FALSE(cv.WaitFor(lock, std::chrono::microseconds(2000)));
    EXPECT_FALSE(served);
  }

  queue.Close();  // drains the admitted request -> callback -> NotifyOne
  {
    MutexLock lock(&mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!served) {
      ASSERT_TRUE(cv.WaitUntil(lock, deadline)) << "callback never ran";
    }
    EXPECT_TRUE(served_status.ok());
  }
}

}  // namespace
}  // namespace serve
}  // namespace udt
