#include "serve/serve_harness.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace udt {
namespace serve {

namespace {

// Opens once; client threads block on Wait until the main thread has
// spawned everyone, so all clients start the clock together.
class StartGate {
 public:
  void Open() {
    {
      MutexLock lock(&mu_);
      open_ = true;
    }
    cv_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(&mu_);
    while (!open_) cv_.Wait(lock);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool open_ UDT_GUARDED_BY(mu_) = false;
};

// Nearest-rank percentile over a sorted sample set.
double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  index = std::min(std::max<size_t>(index, 1), sorted.size());
  return sorted[index - 1];
}

// Runs the closed loop: spawn clients, open the gate, join, merge
// latencies. `run_client(c, latencies)` issues that client's requests and
// appends one latency (us) per request; returns its wall seconds.
template <typename RunClient>
LatencyStats DriveClients(const HarnessOptions& options,
                          RunClient run_client) {
  UDT_CHECK(options.num_clients >= 1);
  const size_t clients = static_cast<size_t>(options.num_clients);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<double> client_seconds(clients, 0.0);
  StartGate gate;

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    latencies[c].reserve(options.requests_per_client);
    threads.emplace_back([&, c] {
      gate.Wait();
      WallTimer timer;
      run_client(c, &latencies[c]);
      client_seconds[c] = timer.ElapsedSeconds();
    });
  }
  gate.Open();
  for (std::thread& thread : threads) thread.join();

  std::vector<double> merged;
  merged.reserve(clients * options.requests_per_client);
  for (std::vector<double>& sample : latencies) {
    merged.insert(merged.end(), sample.begin(), sample.end());
  }
  const double wall =
      *std::max_element(client_seconds.begin(), client_seconds.end());
  return SummarizeLatencies(merged, wall);
}

}  // namespace

LatencyStats SummarizeLatencies(std::vector<double>& latencies_us,
                                double wall_seconds) {
  LatencyStats stats;
  stats.requests = latencies_us.size();
  stats.wall_seconds = wall_seconds;
  stats.qps = static_cast<double>(stats.requests) /
              std::max(wall_seconds, 1e-12);
  if (latencies_us.empty()) return stats;
  std::sort(latencies_us.begin(), latencies_us.end());
  stats.p50_us = PercentileSorted(latencies_us, 50.0);
  stats.p95_us = PercentileSorted(latencies_us, 95.0);
  stats.p99_us = PercentileSorted(latencies_us, 99.0);
  stats.max_us = latencies_us.back();
  return stats;
}

LatencyStats RunDirectClients(const CompiledForest& model,
                              std::span<const UncertainTuple> pool,
                              const HarnessOptions& options) {
  UDT_CHECK(!pool.empty());
  const size_t stride = static_cast<size_t>(options.num_clients);
  return DriveClients(options, [&](size_t c, std::vector<double>* out) {
    PredictSession session(model);
    std::vector<double> row(static_cast<size_t>(session.num_classes()));
    for (size_t j = 0; j < options.requests_per_client; ++j) {
      const UncertainTuple& tuple = pool[(c + j * stride) % pool.size()];
      WallTimer timer;
      session.ClassifyInto(tuple, row.data());
      out->push_back(timer.ElapsedSeconds() * 1e6);
    }
  });
}

LatencyStats RunQueueClients(BatchingQueue* queue,
                             std::span<const UncertainTuple> pool,
                             const HarnessOptions& options,
                             size_t* failures) {
  UDT_CHECK(queue != nullptr);
  UDT_CHECK(!pool.empty());
  const size_t stride = static_cast<size_t>(options.num_clients);
  Mutex failure_mu;
  size_t failed = 0;
  LatencyStats stats =
      DriveClients(options, [&](size_t c, std::vector<double>* out) {
        size_t my_failures = 0;
        for (size_t j = 0; j < options.requests_per_client; ++j) {
          const UncertainTuple& tuple = pool[(c + j * stride) % pool.size()];
          WallTimer timer;
          ServeResult result = queue->Submit(&tuple).get();
          const double elapsed_us = timer.ElapsedSeconds() * 1e6;
          // Shed/rejected responses return near-instantly; mixing them
          // into the sample set would deflate every percentile. Only
          // served requests produce latency samples.
          if (result.status.ok()) {
            out->push_back(elapsed_us);
          } else {
            ++my_failures;
          }
        }
        MutexLock lock(&failure_mu);
        failed += my_failures;
      });
  stats.failed = failed;
  if (failures != nullptr) *failures = failed;
  return stats;
}

}  // namespace serve
}  // namespace udt
