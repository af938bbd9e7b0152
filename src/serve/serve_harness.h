// udt::serve::ServeHarness — a closed-loop multi-client load driver for
// the serving front end, shared by bench_serve_frontend and the serve
// tests. Each client thread issues single-tuple requests back to back
// (closed loop: the next request leaves when the previous response
// arrives), cycling through a tuple pool, and records one wall-clock
// latency per request. Two modes bracket the design space:
//   * direct — every client owns a private PredictSession and classifies
//     inline: the per-client-session baseline (no queuing delay, but one
//     session + scratch set per client);
//   * queue  — every client submits to one shared BatchingQueue and waits
//     on its future: coalesced micro-batches over one session (admission
//     cost + batching delay, but shared state and hot-swap for free).
// The returned LatencyStats carry sustained QPS (total requests over the
// slowest client's wall time) and p50/p95/p99 latency in microseconds.

#ifndef UDT_SERVE_SERVE_HARNESS_H_
#define UDT_SERVE_SERVE_HARNESS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "api/compiled_forest.h"
#include "serve/batching_queue.h"

namespace udt {
namespace serve {

struct LatencyStats {
  size_t requests = 0;  // successfully served requests (latency samples)
  size_t failed = 0;    // non-OK responses (shed/rejected), queue mode only
  double wall_seconds = 0.0;  // slowest client, start barrier to last reply
  double qps = 0.0;           // requests / wall_seconds
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

// Percentiles over one latency sample set (sorted in place; nearest-rank).
// `wall_seconds` feeds the QPS field. Exposed for tests.
LatencyStats SummarizeLatencies(std::vector<double>& latencies_us,
                                double wall_seconds);

struct HarnessOptions {
  int num_clients = 1;
  size_t requests_per_client = 1000;
};

// Direct mode: `num_clients` threads, each with its own PredictSession over
// `model`, classifying its share of `pool` round-robin.
LatencyStats RunDirectClients(const CompiledForest& model,
                              std::span<const UncertainTuple> pool,
                              const HarnessOptions& options);

// Queue mode: `num_clients` threads submitting to `queue` and blocking on
// each future. Requests that complete with a non-OK status (shed by a full
// queue, rejected after shutdown) are excluded from the latency sample set
// — a shed response returns in microseconds and would otherwise drag
// p50/p95/p99 optimistically low — and reported in LatencyStats::failed
// (and `*failures` when non-null) instead of crashing the harness.
LatencyStats RunQueueClients(BatchingQueue* queue,
                             std::span<const UncertainTuple> pool,
                             const HarnessOptions& options,
                             size_t* failures = nullptr);

}  // namespace serve
}  // namespace udt

#endif  // UDT_SERVE_SERVE_HARNESS_H_
