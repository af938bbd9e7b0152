// The four workloads. Each one generates its inputs from the seed, hands
// the library only those inputs, times its operations from the outside,
// and checks every output against a reference computed during set-up.
//
// End-to-end metrics carry the same names in every workload; what each
// one measures per workload is listed in perfbench/interactions.json.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/compiled_forest.h"
#include "api/compiled_model.h"
#include "api/forest.h"
#include "api/forest_session.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "bench.h"
#include "common/random.h"
#include "core/builder.h"
#include "datagen/uci_like.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "stats.h"
#include "stream/adaptive_server.h"
#include "table/point_dataset.h"
#include "table/uncertainty_injector.h"
#include "tree/flat_tree.h"

namespace perfbench {
namespace {

using udt::serve::BatchingQueue;
using udt::serve::ModelHandle;
using udt::serve::ServeResult;

// Section 4.3 injector settings: Gaussian error, w = 10%, s = 100.
constexpr double kWidth = 0.10;
constexpr int kSamplesPerPdf = 100;
// One serial UDT-ES build of this many Satellite-shaped tuples takes
// ~0.15 s on a 4-vCPU VM (~0.1 s at 4 threads), so a run holds far more
// than the 100 builds its p90 needs.
constexpr int kTrainTuples = 96;
// The p90 build time is set by the few costliest draws, so more draws
// make it depend less on the seed: one seed's p90 read 18% above four
// other seeds' with 16 draws, 12% with 32.
constexpr int kTrainSets = 32;
// Serial / nproc-thread build pairs behind common.train_speedup.
constexpr int kSpeedupPairs = 3;
// The served models (batch, serve) are the deployment under test, the
// same in every run: trained on a fixed draw of this many tuples with a
// fixed forest seed. The workload seed draws the requests.
constexpr int kModelTuples = 160;
constexpr uint64_t kModelSeed = 2009;
// 256 tuples x 36 attributes x 100-point pdfs is ~22 MiB, larger than a
// core's 8 MiB L2.
constexpr int kPoolTuples = 256;
constexpr int kBatch = 64;
constexpr int kForestTrees = 8;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

// The serve pool (~5.5 MiB) stays in the last-level cache, as requests
// just received would be, and is large enough to average out per-tuple
// cost differences between seeds.
constexpr int kServePoolTuples = 64;
// Phase "open". At 20k req/s the eager queue (one request per drain) ran
// at 50-90% of the drainer's capacity on a 4-vCPU VM, and its p50 swung
// from ~30 us to milliseconds with host load; 10k req/s keeps it steady.
constexpr double kServeOpenRate = 10000.0;  // req/s
constexpr int kSaturateInFlight = 64;
constexpr int kServeRounds = 6;

// Adaptive loop. A single-threaded 8-tree retrain on the default
// 2048-tuple window of 100-point pdfs takes tens of seconds, so the loop
// runs on 10-point pdfs and a 256-tuple window: one retrain then fits in
// the ~0.5 s between two scheduled retrains.
constexpr double kAdaptiveRate = 10000.0;  // reads/s
constexpr int kFeedbackEvery = 10;
constexpr int64_t kScheduleEvery = 512;
constexpr size_t kAdaptiveWindow = 256;
constexpr int kAdaptiveSamplesPerPdf = 10;
constexpr int kAdaptiveSeedTuples = 256;
constexpr int kAdaptivePoolTuples = 512;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }
int64_t Ns(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

bool SameBytes(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Thread placement for the serving workloads. Left to the scheduler, a
// woken client often lands on the drainer's core and the two serialise:
// throughput then flips between two modes ~2x apart within one run. The
// benchmark therefore keeps the library's drainer (which inherits the
// placement of the thread that constructs its queue) on one pair of
// cores and its own threads (client or generator, collector, and the
// adaptive loop's feedback thread, which runs the retrains) on the
// other. The scheduler still balances within a pair, e.g. away from a
// core the host has descheduled.
constexpr int kClientCores = 0;  // first of two
constexpr int kServerCores = 2;  // first of two

// The CPUs the process may run on. First called from the main thread
// before any pinning (threads started later inherit a pinned mask).
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    pthread_getaffinity_np(pthread_self(), sizeof(set), &set);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
    return cpus;
  }();
  return allowed;
}

// Pins the calling thread to `count` CPUs starting at the `first`-th
// CPU the process may run on (modulo their number) and restores the
// thread's previous placement on destruction.
class ScopedPin {
 public:
  explicit ScopedPin(int first, int count = 1) {
    const std::vector<int>& allowed = AllowedCpus();
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < count; ++i) {
      CPU_SET(allowed[static_cast<size_t>(first + i) % allowed.size()], &set);
    }
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  ~ScopedPin() {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
};

// Blocks until `counter` exceeds `j`; the writer notifies after each
// store.
void WaitAbove(const std::atomic<size_t>& counter, size_t j) {
  for (;;) {
    const size_t seen = counter.load(std::memory_order_acquire);
    if (seen > j) return;
    counter.wait(seen, std::memory_order_acquire);
  }
}

// Open-loop pacing: sleeps until shortly before `due_ns`, then spins to
// it, so the generator keeps to its schedule without keeping a core busy
// between requests (on a shared VM a spinning generator costs the
// threads under test CPU time). Run it under FineTimerSlack: with the
// default 50 us slack the sleep alone overshoots by ~57 us, with 1 ns by
// ~8 us.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 20000;
  const int64_t wake = due_ns - kSpinNs;
  if (wake > NowNs()) {
    const timespec at{static_cast<time_t>(wake / 1000000000),
                      static_cast<long>(wake % 1000000000)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr);
  }
  while (NowNs() < due_ns) {
  }
}

// Sets the calling thread's timer slack to 1 ns for its lifetime.
class FineTimerSlack {
 public:
  FineTimerSlack() : saved_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~FineTimerSlack() {
    if (saved_ > 0) prctl(PR_SET_TIMERSLACK, saved_, 0, 0, 0);
  }
  FineTimerSlack(const FineTimerSlack&) = delete;
  FineTimerSlack& operator=(const FineTimerSlack&) = delete;

 private:
  long saved_;
};

// Tuples drawn from datagen's Satellite-shaped Table 2 set, which is
// fixed like the paper's data set: `train_n` rows drawn with
// `train_seed`, then `pool_n` further rows (the requests) drawn with
// `pool_seed`. Each group goes through the Section 4.3 injector on its
// own, so the training tuples do not depend on the pool's draw.
struct Data {
  udt::Dataset train;
  udt::Dataset pool;
};

Data MakeData(uint64_t train_seed, int train_n, uint64_t pool_seed,
              int pool_n, int samples, Tracer* tracer, int64_t parent) {
  const int64_t t0 = NowNs();
  const udt::PointDataset all = udt::datagen::MakeUciLikePointData(
      *udt::datagen::FindUciSpec("Satellite"), 1.0);
  std::vector<int> rows(static_cast<size_t>(all.num_tuples()));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  // Partial Fisher-Yates: rows[from, from + n) become a uniform draw
  // from rows[from, end).
  auto draw = [&](uint64_t seed, size_t from, size_t n) {
    udt::Rng rng(seed);
    for (size_t i = from; i < from + n; ++i) {
      const size_t j = i + static_cast<size_t>(rng.UniformInt(
                               static_cast<int>(rows.size() - i)));
      std::swap(rows[i], rows[j]);
    }
  };
  const size_t ntrain = static_cast<size_t>(train_n);
  const size_t npool = static_cast<size_t>(pool_n);
  UDT_CHECK(ntrain + npool <= rows.size());
  draw(train_seed, 0, ntrain);
  draw(pool_seed, ntrain, npool);
  const int64_t t1 = NowNs();
  tracer->Record("setup.datagen", 0, parent, t0, t1);

  udt::UncertaintyOptions options;
  options.width_fraction = kWidth;
  options.samples_per_pdf = samples;
  options.error_model = udt::ErrorModel::kGaussian;
  auto inject = [&](size_t from, size_t n) {
    udt::PointDataset points(all.schema());
    for (size_t i = from; i < from + n; ++i) {
      UDT_CHECK(points.AddRow(all.row(rows[i]), all.label(rows[i])).ok());
    }
    udt::StatusOr<udt::Dataset> data = udt::InjectUncertainty(points, options);
    UDT_CHECK(data.ok());
    return std::move(*data);
  };
  udt::Dataset train = inject(0, ntrain);
  udt::Dataset pool =
      npool > 0 ? inject(ntrain, npool) : udt::Dataset(train.schema());
  tracer->Record("setup.inject", 0, parent, t1, NowNs());
  return Data{std::move(train), std::move(pool)};
}

// Repeats `sample()` (one measurement of the phase's headline metric)
// until SteadyDetector calls the phase steady or `timeout_s` passes.
template <typename Sample>
bool WarmUp(Sample sample, double timeout_s, size_t window = 4,
            double rel_delta = 0.05, size_t min_samples = 6) {
  SteadyDetector detector(window, rel_delta, min_samples);
  const int64_t deadline = NowNs() + Ns(timeout_s);
  while (NowNs() < deadline) {
    if (detector.Add(sample())) return true;
  }
  return false;
}

// Runs `make` kSetupReps times (1 when traced), keeping the last state
// and recording each set-up's wall time. The previous state is released
// before the next set-up starts.
template <typename State, typename Make>
std::unique_ptr<State> SetUp(bool traced, Make make,
                             std::vector<double>* seconds) {
  std::unique_ptr<State> state;
  const int reps = traced ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    state.reset();
    const int64_t t0 = NowNs();
    state = make();
    seconds->push_back(Sec(NowNs() - t0));
  }
  return state;
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

void AddCommon(const std::vector<double>& setup_s, const Tally& tally,
               Outcome* out) {
  out->attempted = tally.attempted;
  out->failed = tally.failed;
  out->Add("setup_s", Median(setup_s), "s");
  out->Add("ok_frac", 1.0 - FailedFraction(tally.failed, tally.attempted),
           "ratio");
}

// ===================================================================
// train: repeated serial Trainer::Train builds, nproc at once. A 4-thread
// build waits on every thread at each of its joins, so on a shared VM it
// slowed by ~30% at 10-15% host steal, and a ten-run set spread past the
// gate's bound; a serial build slows only by the steal of its own core,
// and nproc of them keep the whole VM busy.

// Runs fn(w) for w in [0, nproc) on nproc threads, thread w pinned to
// the w-th core, and waits for all of them.
template <typename Fn>
void OnEveryCore(Fn fn) {
  std::vector<std::thread> threads;
  for (int w = 0; w < Nproc(); ++w) {
    threads.emplace_back([&fn, w] {
      ScopedPin pin(w);
      fn(static_cast<size_t>(w));
    });
  }
  for (std::thread& t : threads) t.join();
}

struct TrainState {
  // kTrainSets independent draws of the same generator; builds rotate
  // through them, so a run's build-time distribution does not hinge on
  // one draw's tree shape.
  std::vector<udt::Dataset> sets;
  std::vector<std::string> reference;  // each set's first build, serialised
  std::vector<double> reference_s;     // ... and its wall time (warm-up)
  udt::Trainer serial;                 // one thread: every timed build
  udt::Trainer parallel;               // nproc threads: traced run only
};

// One timed build of set `i`, checked against the set's reference tree;
// returns its wall time.
double Build(const TrainState& state, const udt::Trainer& trainer, size_t i,
             Tracer* tracer, Tally* tally, udt::BuildStats* stats) {
  udt::TrainRequest request = udt::TrainRequest::For(state.sets[i]);
  request.stats = stats;
  const int64_t t0 = NowNs();
  udt::StatusOr<udt::Model> model = trainer.Train(request);
  const int64_t t1 = NowNs();
  tracer->Record("train.build", 0, -1, t0, t1);
  tally->Count(model.ok() && model->Serialize() == state.reference[i]);
  return Sec(t1 - t0);
}

std::unique_ptr<TrainState> SetUpTrain(const Options& options, Tracer* tracer,
                                       Tally* tally) {
  ScopedSpan setup(tracer, "setup");
  Data data = MakeData(Mix(options.seed, 1), kTrainTuples * kTrainSets, 0, 0,
                       kSamplesPerPdf, tracer, setup.index());
  udt::TreeConfig config;
  config.num_threads = Nproc();
  udt::TreeConfig serial_config = config;
  serial_config.num_threads = 1;
  auto state = std::make_unique<TrainState>(TrainState{
      {}, {}, {}, udt::Trainer(serial_config), udt::Trainer(config)});
  for (int set = 0; set < kTrainSets; ++set) {
    state->sets.emplace_back(data.train.schema());
    for (int i = 0; i < kTrainTuples; ++i) {
      UDT_CHECK(state->sets.back()
                    .AddTuple(data.train.tuple(set * kTrainTuples + i))
                    .ok());
    }
  }
  {
    ScopedSpan span(tracer, "setup.train", setup.index());
    state->reference.resize(state->sets.size());
    state->reference_s.resize(state->sets.size());
    OnEveryCore([&](size_t w) {
      for (size_t i = w; i < state->sets.size();
           i += static_cast<size_t>(Nproc())) {
        const int64_t t0 = NowNs();
        udt::StatusOr<udt::Model> model =
            state->serial.Train(udt::TrainRequest::For(state->sets[i]));
        state->reference_s[i] = Sec(NowNs() - t0);
        UDT_CHECK(model.ok());
        state->reference[i] = model->Serialize();
      }
    });
  }
  // Steady once a serial build's time relative to its set's reference
  // build has settled.
  ScopedSpan span(tracer, "setup.warmup", setup.index());
  size_t next = 0;
  WarmUp(
      [&] {
        const size_t i = next++ % state->sets.size();
        return Build(*state, state->serial, i, &Tracer::Off(), tally,
                     nullptr) /
               state->reference_s[i];
      },
      /*timeout_s=*/1.0, /*window=*/3, /*rel_delta=*/0.10,
      /*min_samples=*/4);
  return state;
}

struct TrainRun {
  std::vector<double> build_s;  // every timed build's wall time
  double elapsed_s = 0.0;       // from the start to the last build's end
  udt::BuildStats stats;        // summed over the timed builds
};

// Serial builds on every core for `seconds` and until `min_builds` builds
// are done in all. Thread w starts at set w and rotates through every
// set.
TrainRun TimeBuilds(const TrainState& state, double seconds,
                    size_t min_builds, Tracer* tracer, Tally* tally) {
  const size_t workers = static_cast<size_t>(Nproc());
  const int64_t start = NowNs();
  const int64_t deadline = start + Ns(seconds);
  std::atomic<size_t> done{0};
  std::vector<std::vector<double>> times(workers);
  std::vector<udt::BuildStats> stats(workers);
  std::vector<Tally> tallies(workers);
  OnEveryCore([&](size_t w) {
    for (size_t i = w; NowNs() < deadline || done.load() < min_builds; ++i) {
      udt::BuildStats one;
      times[w].push_back(Build(state, state.serial, i % state.sets.size(),
                               tracer, &tallies[w], &one));
      stats[w] += one;
      done.fetch_add(1);
    }
  });
  TrainRun run;
  run.elapsed_s = Sec(NowNs() - start);
  for (size_t w = 0; w < workers; ++w) {
    run.build_s.insert(run.build_s.end(), times[w].begin(), times[w].end());
    run.stats += stats[w];
    tally->attempted += tallies[w].attempted;
    tally->failed += tallies[w].failed;
  }
  return run;
}

// ===================================================================
// batch: PredictBatchInto in batches of 64 on nproc threads, each with its
// own sessions.

enum BatchModel { kUdtTree = 0, kAvgTree = 1, kForest = 2, kNumModels = 3 };
constexpr const char* kModelNames[kNumModels] = {"udt", "avg", "forest"};

struct Served {
  explicit Served(Data d) : data(std::move(d)) {}
  Data data;
  std::optional<udt::CompiledModel> udt;
  std::optional<udt::CompiledModel> avg;
  std::optional<udt::CompiledForest> forest;
  int num_classes = 0;
};

// Trains and compiles the served models: a UDT-ES tree, an AVG tree and
// an 8-tree UDT-ES forest (trees only when `trees`), with a request pool
// of `pool` tuples.
std::unique_ptr<Served> TrainServed(const Options& options, bool trees,
                                    int pool, Tracer* tracer,
                                    int64_t parent) {
  auto served = std::make_unique<Served>(
      MakeData(kModelSeed, kModelTuples, Mix(options.seed, 2), pool,
               kSamplesPerPdf, tracer, parent));
  served->num_classes = served->data.train.num_classes();
  std::optional<udt::Model> udt_model;
  std::optional<udt::Model> avg_model;
  std::optional<udt::ForestModel> forest_model;
  {
    ScopedSpan span(tracer, "setup.train", parent);
    udt::TreeConfig config;
    config.num_threads = Nproc();
    udt::Trainer trainer(config);
    if (trees) {
      udt::StatusOr<udt::Model> m = trainer.Train(
          udt::TrainRequest::For(served->data.train, udt::ModelKind::kUdt));
      UDT_CHECK(m.ok());
      udt_model.emplace(std::move(*m));
      m = trainer.Train(udt::TrainRequest::For(served->data.train,
                                               udt::ModelKind::kAveraging));
      UDT_CHECK(m.ok());
      avg_model.emplace(std::move(*m));
    }
    udt::ForestConfig forest;
    forest.num_trees = kForestTrees;
    forest.seed = kModelSeed;
    forest.num_threads = Nproc();
    udt::StatusOr<udt::ForestModel> f = udt::ForestTrainer(forest).Train(
        udt::TrainRequest::For(served->data.train));
    UDT_CHECK(f.ok());
    forest_model.emplace(std::move(*f));
  }
  ScopedSpan span(tracer, "setup.compile", parent);
  if (trees) {
    served->udt.emplace(udt_model->Compile());
    served->avg.emplace(avg_model->Compile());
  }
  served->forest.emplace(forest_model->Compile());
  return served;
}

// One batch worker thread's sessions and output buffer. Sessions are not
// thread-safe: each worker holds its own, the deployment shape
// PredictSession documents.
struct BatchWorker {
  explicit BatchWorker(const Served& served)
      : udt(*served.udt), avg(*served.avg), forest(*served.forest) {}
  udt::PredictSession udt;
  udt::PredictSession avg;
  udt::ForestPredictSession forest;
  udt::FlatBatchResult out;
};

struct BatchState {
  std::unique_ptr<Served> served;
  // Scalar ClassifyInto answers, pool-major, one block per model.
  std::vector<double> reference[kNumModels];
  std::vector<std::unique_ptr<BatchWorker>> workers;  // one per thread
};

// One checked 64-tuple call; returns its wall time.
double BatchCall(const BatchState& s, BatchWorker& w, int model, int batch,
                 const udt::PredictOptions& options, Tally* tally) {
  std::span<const udt::UncertainTuple> tuples =
      std::span<const udt::UncertainTuple>(s.served->data.pool.tuples())
          .subspan(static_cast<size_t>(batch) * kBatch, kBatch);
  const int64_t t0 = NowNs();
  udt::Status status =
      model == kUdtTree   ? w.udt.PredictBatchInto(tuples, options, &w.out)
      : model == kAvgTree ? w.avg.PredictBatchInto(tuples, options, &w.out)
                          : w.forest.PredictBatchInto(tuples, options, &w.out);
  const int64_t t1 = NowNs();
  const size_t k = static_cast<size_t>(s.served->num_classes);
  const size_t offset = static_cast<size_t>(batch) * kBatch * k;
  tally->Count(status.ok() && w.out.distributions.size() == kBatch * k &&
               SameBytes(w.out.distributions.data(),
                         s.reference[model].data() + offset, kBatch * k));
  return Sec(t1 - t0);
}

// Runs `workers` threads for `seconds`, each cycling through models, then
// batches (from its own starting batch), so host noise falls on all three
// models alike. Inline calls pin each thread to its own core; a call
// sharded over the session's pool leaves its thread unpinned, since the
// pool's workers inherit the placement of the thread that creates them.
// Appends every call's wall time to call_s[model].
void TimeBatchCalls(BatchState& state, int workers,
                    const udt::PredictOptions& options, double seconds,
                    Tracer* tracer, Tally* tally,
                    std::vector<double>* call_s) {
  static constexpr const char* kSpan[kNumModels] = {
      "api.batch_call.udt", "api.batch_call.avg", "api.batch_call.forest"};
  const int batches = kPoolTuples / kBatch;
  const int64_t deadline = NowNs() + Ns(seconds);
  std::vector<std::vector<double>> times(
      static_cast<size_t>(workers) * kNumModels);
  std::vector<Tally> tallies(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::optional<ScopedPin> pin;
      if (options.num_threads == 1) pin.emplace(w);
      BatchWorker& worker = *state.workers[static_cast<size_t>(w)];
      for (int64_t i = 0; NowNs() < deadline; ++i) {
        const int m = static_cast<int>(i % kNumModels);
        const int b = static_cast<int>((i / kNumModels + w) % batches);
        const int64_t t0 = NowNs();
        const double s = BatchCall(state, worker, m, b, options,
                                   &tallies[static_cast<size_t>(w)]);
        tracer->Record(kSpan[m], 0, -1, t0, t0 + Ns(s));
        times[static_cast<size_t>(w * kNumModels + m)].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < workers; ++w) {
    for (int m = 0; m < kNumModels; ++m) {
      const auto& v = times[static_cast<size_t>(w * kNumModels + m)];
      call_s[m].insert(call_s[m].end(), v.begin(), v.end());
    }
    tally->attempted += tallies[static_cast<size_t>(w)].attempted;
    tally->failed += tallies[static_cast<size_t>(w)].failed;
  }
}

std::unique_ptr<BatchState> SetUpBatch(const Options& options, Tracer* tracer,
                                       Tally* tally) {
  ScopedSpan setup(tracer, "setup");
  auto state = std::make_unique<BatchState>();
  state->served =
      TrainServed(options, /*trees=*/true, kPoolTuples, tracer, setup.index());
  const Served& served = *state->served;
  for (int w = 0; w < Nproc(); ++w) {
    state->workers.push_back(std::make_unique<BatchWorker>(served));
  }
  {
    ScopedSpan span(tracer, "setup.reference", setup.index());
    udt::PredictSession udt_ref(*served.udt);
    udt::PredictSession avg_ref(*served.avg);
    udt::ForestPredictSession forest_ref(*served.forest);
    const size_t k = static_cast<size_t>(served.num_classes);
    const int n = served.data.pool.num_tuples();
    for (auto& block : state->reference) block.resize(n * k);
    for (int i = 0; i < n; ++i) {
      const udt::UncertainTuple& t = served.data.pool.tuple(i);
      udt_ref.ClassifyInto(t, state->reference[kUdtTree].data() + i * k);
      avg_ref.ClassifyInto(t, state->reference[kAvgTree].data() + i * k);
      forest_ref.ClassifyInto(t, state->reference[kForest].data() + i * k);
    }
  }
  ScopedSpan span(tracer, "setup.warmup", setup.index());
  WarmUp(
      [&] {
        std::vector<double> call_s[kNumModels];
        TimeBatchCalls(*state, Nproc(), udt::PredictOptions{}, 0.05,
                       &Tracer::Off(), tally, call_s);
        return Median(call_s[kUdtTree]);
      },
      /*timeout_s=*/2.0);
  return state;
}

// ===================================================================
// serve: the forest behind an eager BatchingQueue, clients on futures.

struct DrainMark {
  int64_t start_ns;     // the snapshot provider was called: drain starts
  int64_t resolved_ns;  // ModelRegistry::Resolve returned
};
struct TapMark {
  int64_t at_ns;
  int64_t drain;  // index into drains
};

struct ServeState {
  std::unique_ptr<Served> served;
  udt::serve::ModelRegistry registry;
  std::vector<double> reference;  // direct ServeSession answers
  // Written only on the drainer thread while requests are in flight, read
  // by the client after its futures resolved; cleared between phases
  // while the queue is idle.
  std::vector<DrainMark> drains;
  std::vector<TapMark> taps;
  std::unique_ptr<BatchingQueue> queue;  // last: destroyed first
};

constexpr const char* kServedName = "forest";

bool CheckServed(const ServeState& s, const ServeResult& r, int tuple) {
  const size_t k = static_cast<size_t>(s.served->num_classes);
  return r.status.ok() && r.model_version == 1 &&
         r.distribution.size() == k &&
         SameBytes(r.distribution.data(),
                   s.reference.data() + static_cast<size_t>(tuple) * k, k);
}

// Per-request timestamps of one phase, in submission order.
struct RequestMarks {
  std::vector<int64_t> due;  // open loop only
  std::vector<int64_t> submit_start;
  std::vector<int64_t> submit_end;
  std::vector<int64_t> ready;
};

struct PhaseResult {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  std::vector<double> latency_us;  // per request
  double window_s = 0.0;
  int64_t completed_in_window = 0;
  std::vector<double> slice_rps;  // saturate: completions per 100 ms slice
  int64_t backlog_max = 0;
  std::vector<double> late_us;  // generator lateness, open loop
  RequestMarks marks;
  udt::serve::BatchingQueue::Stats before;
  udt::serve::BatchingQueue::Stats after;
};

void CountResult(bool ok, PhaseResult* phase, Tally* tally) {
  ++phase->sent;
  if (ok) {
    ++phase->succeeded;
  } else {
    ++phase->failed;
  }
  tally->Count(ok);
}

// Phase "one": one closed-loop client.
PhaseResult RunOne(ServeState& s, double seconds, int64_t* cursor,
                   Tally* tally) {
  ScopedPin pin(kClientCores, 2);
  PhaseResult phase;
  phase.before = s.queue->stats();
  const int pool = s.served->data.pool.num_tuples();
  const int64_t start = NowNs();
  const int64_t deadline = start + Ns(seconds);
  while (NowNs() < deadline) {
    const int tuple = static_cast<int>((*cursor)++ % pool);
    const int64_t t0 = NowNs();
    std::future<ServeResult> f =
        s.queue->Submit(&s.served->data.pool.tuple(tuple));
    const int64_t t1 = NowNs();
    ServeResult r = f.get();
    const int64_t t2 = NowNs();
    CountResult(CheckServed(s, r, tuple), &phase, tally);
    phase.latency_us.push_back(Us(t2 - t0));
    phase.marks.submit_start.push_back(t0);
    phase.marks.submit_end.push_back(t1);
    phase.marks.ready.push_back(t2);
  }
  phase.window_s = Sec(NowNs() - start);
  phase.completed_in_window = phase.sent;
  phase.after = s.queue->stats();
  return phase;
}

// Open-loop arrivals at `rate`: request j is due at start + j / rate and
// is timed from its due time; a collector thread waits on the futures in
// order.
PhaseResult RunOpen(ServeState& s, double rate, double seconds,
                    int64_t* cursor, Tally* tally) {
  ScopedPin pin(kClientCores, 2);
  FineTimerSlack slack;
  PhaseResult phase;
  phase.before = s.queue->stats();
  const int pool = s.served->data.pool.num_tuples();
  const size_t n = static_cast<size_t>(rate * seconds);
  std::vector<std::future<ServeResult>> futures(n);
  std::vector<int> tuples(n);
  std::vector<char> ok(n, 0);
  RequestMarks& m = phase.marks;
  m.due.resize(n);
  m.submit_start.resize(n);
  m.submit_end.resize(n);
  m.ready.resize(n);
  std::atomic<size_t> produced{0};
  std::atomic<size_t> completed{0};
  std::thread collector([&] {
    ScopedPin pin(kClientCores, 2);
    for (size_t j = 0; j < n; ++j) {
      WaitAbove(produced, j);
      ServeResult r = futures[j].get();
      m.ready[j] = NowNs();
      ok[j] = CheckServed(s, r, tuples[j]);
      completed.store(j + 1, std::memory_order_release);
    }
  });
  const int64_t period = static_cast<int64_t>(1e9 / rate);
  const int64_t start = NowNs() + 100000;
  for (size_t j = 0; j < n; ++j) {
    m.due[j] = start + static_cast<int64_t>(j) * period;
    WaitUntil(m.due[j]);
    tuples[j] = static_cast<int>((*cursor)++ % pool);
    m.submit_start[j] = NowNs();
    futures[j] = s.queue->Submit(&s.served->data.pool.tuple(tuples[j]));
    m.submit_end[j] = NowNs();
    produced.store(j + 1, std::memory_order_release);
    produced.notify_one();
    phase.backlog_max = std::max<int64_t>(
        phase.backlog_max,
        static_cast<int64_t>(j + 1 - completed.load(std::memory_order_acquire)));
  }
  collector.join();
  const int64_t window_end = start + static_cast<int64_t>(n) * period;
  phase.window_s = Sec(window_end - start);
  for (size_t j = 0; j < n; ++j) {
    CountResult(ok[j] != 0, &phase, tally);
    phase.latency_us.push_back(Us(m.ready[j] - m.due[j]));
    phase.late_us.push_back(Us(m.submit_start[j] - m.due[j]));
    if (m.ready[j] <= window_end) ++phase.completed_in_window;
  }
  phase.after = s.queue->stats();
  return phase;
}

// Phase "saturate": one client keeping kSaturateInFlight requests in
// flight; throughput counts completions inside the fixed window.
PhaseResult RunSaturate(ServeState& s, double seconds, int64_t* cursor,
                        Tally* tally) {
  ScopedPin pin(kClientCores, 2);
  PhaseResult phase;
  phase.before = s.queue->stats();
  const int pool = s.served->data.pool.num_tuples();
  std::vector<std::future<ServeResult>> ring(kSaturateInFlight);
  std::vector<int> tuples(kSaturateInFlight);
  std::vector<int64_t> submitted(kSaturateInFlight);
  auto submit = [&](int slot) {
    tuples[slot] = static_cast<int>((*cursor)++ % pool);
    submitted[slot] = NowNs();
    ring[slot] = s.queue->Submit(&s.served->data.pool.tuple(tuples[slot]));
  };
  constexpr int64_t kSliceNs = 100000000;
  std::vector<int64_t> slice_counts;
  const int64_t start = NowNs();
  const int64_t deadline = start + Ns(seconds);
  for (int slot = 0; slot < kSaturateInFlight; ++slot) submit(slot);
  for (int64_t j = 0;; ++j) {
    const int slot = static_cast<int>(j % kSaturateInFlight);
    ServeResult r = ring[slot].get();
    const int64_t now = NowNs();
    CountResult(CheckServed(s, r, tuples[slot]), &phase, tally);
    phase.latency_us.push_back(Us(now - submitted[slot]));
    if (now > deadline) {
      for (int k = 1; k < kSaturateInFlight; ++k) {
        const int other = (slot + k) % kSaturateInFlight;
        CountResult(CheckServed(s, ring[other].get(), tuples[other]), &phase,
                    tally);
      }
      break;
    }
    ++phase.completed_in_window;
    const size_t slice = static_cast<size_t>((now - start) / kSliceNs);
    if (slice_counts.size() <= slice) slice_counts.resize(slice + 1, 0);
    ++slice_counts[slice];
    submit(slot);
  }
  phase.window_s = Sec(deadline - start);
  for (size_t i = 0; i + 1 < slice_counts.size(); ++i) {
    phase.slice_rps.push_back(static_cast<double>(slice_counts[i]) /
                              Sec(kSliceNs));
  }
  phase.after = s.queue->stats();
  return phase;
}

double Rps(const PhaseResult& p) {
  return static_cast<double>(p.completed_in_window) / p.window_s;
}

// Saturate throughput, the rate the server sustains: the 90th percentile
// of the 100 ms slice rates. On a shared VM, slices in which the host
// deschedules the drainer's core read low; the best tenth of the slices
// shows what the server itself can do.
double SliceRps(const PhaseResult& p) {
  return p.slice_rps.empty() ? Rps(p) : Percentile(p.slice_rps, 90.0);
}

// `instrument` wraps the registry in a snapshot provider that marks each
// drain start and installs a response tap (the traced run's queue).
std::unique_ptr<ServeState> SetUpServe(const Options& options, Tracer* tracer,
                                       Tally* tally, bool instrument) {
  ScopedSpan setup(tracer, "setup");
  auto state = std::make_unique<ServeState>();
  state->served = TrainServed(options, /*trees=*/false, kServePoolTuples,
                              tracer, setup.index());
  ServeState* s = state.get();
  {
    ScopedSpan span(tracer, "setup.publish", setup.index());
    ScopedPin pin(kServerCores, 2);  // the queue's drainer inherits it
    const uint64_t version = s->registry.Publish(
        kServedName, udt::serve::Servable(*s->served->forest));
    UDT_CHECK(version == 1);
    udt::serve::BatchingConfig config;
    config.max_batch = 64;
    config.max_delay_us = 0;
    config.predict.num_threads = 1;  // classify inline on the drainer
    if (instrument) {
      s->drains.reserve(1 << 20);
      s->taps.reserve(1 << 21);
      config.response_tap = [s](const ServeResult&) {
        s->taps.push_back(
            {NowNs(), static_cast<int64_t>(s->drains.size()) - 1});
      };
      state->queue = std::make_unique<BatchingQueue>(
          [s]() {
            const int64_t t0 = NowNs();
            ModelHandle handle = s->registry.Resolve(kServedName);
            s->drains.push_back({t0, NowNs()});
            return handle;
          },
          config);
    } else {
      state->queue =
          std::make_unique<BatchingQueue>(&s->registry, kServedName, config);
    }
  }
  {
    ScopedSpan span(tracer, "setup.reference", setup.index());
    udt::serve::ServeSession direct(
        s->registry.Resolve(kServedName)->servable);
    const size_t k = static_cast<size_t>(s->served->num_classes);
    const int n = s->served->data.pool.num_tuples();
    s->reference.resize(n * k);
    for (int i = 0; i < n; ++i) {
      direct.ClassifyInto(s->served->data.pool.tuple(i),
                          s->reference.data() + i * k);
    }
  }
  ScopedSpan span(tracer, "setup.warmup", setup.index());
  int64_t cursor = 0;
  constexpr double kBlock = 0.05;
  WarmUp([&] { return Median(RunOne(*s, kBlock, &cursor, tally).latency_us); },
         1.5);
  WarmUp(
      [&] {
        return Median(
            RunOpen(*s, kServeOpenRate, kBlock, &cursor, tally).latency_us);
      },
      1.5);
  WarmUp([&] { return SliceRps(RunSaturate(*s, kBlock, &cursor, tally)); },
         1.5);
  s->drains.clear();
  s->taps.clear();
  return state;
}

// Accumulates one round of a phase into the phase's totals.
void Merge(PhaseResult* into, const PhaseResult& from) {
  if (into->sent == 0) into->before = from.before;
  into->after = from.after;
  into->sent += from.sent;
  into->succeeded += from.succeeded;
  into->failed += from.failed;
  into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(),
                          from.latency_us.end());
  into->late_us.insert(into->late_us.end(), from.late_us.begin(),
                       from.late_us.end());
  into->slice_rps.insert(into->slice_rps.end(), from.slice_rps.begin(),
                         from.slice_rps.end());
  into->window_s += from.window_s;
  into->completed_in_window += from.completed_in_window;
  into->backlog_max = std::max(into->backlog_max, from.backlog_max);
}

std::string PhaseNote(const char* name, const PhaseResult& p) {
  std::string note = Format(
      "phase %-8s sent %lld succeeded %lld failed %lld  p50 %.1fus "
      "p99 %.1fus (n=%zu)  %.0f req/s",
      name, static_cast<long long>(p.sent),
      static_cast<long long>(p.succeeded), static_cast<long long>(p.failed),
      Median(p.latency_us), Percentile(p.latency_us, 99.0),
      p.latency_us.size(), Rps(p));
  if (!p.slice_rps.empty()) {
    note += Format("  100ms slices p10 %.0f p50 %.0f p90 %.0f req/s",
                   Percentile(p.slice_rps, 10), Median(p.slice_rps),
                   Percentile(p.slice_rps, 90));
  }
  note += Format("  batch mean %.1f",
                 Fraction(static_cast<double>(p.after.served - p.before.served),
                          static_cast<double>(p.after.drains - p.before.drains)));
  if (!p.late_us.empty()) {
    note += Format("  generator late p50 %.1fus p99 %.1fus max %.1fus  "
                   "backlog max %lld",
                   Median(p.late_us), Percentile(p.late_us, 99.0),
                   Percentile(p.late_us, 100.0),
                   static_cast<long long>(p.backlog_max));
  }
  return note;
}

// ===================================================================
// adaptive: AdaptiveServer reads open-loop, every tenth response fed back,
// scheduled retrains on the feedback thread.

struct AdaptiveState {
  explicit AdaptiveState(Data d) : data(std::move(d)) {}
  Data data;
  int num_classes = 0;
  // Every version the loop published, kept alive for the reference check.
  std::mutex mu;
  std::map<uint64_t, ModelHandle> versions;
  std::vector<udt::stream::RetrainReport> reports;
  std::atomic<udt::stream::AdaptiveServer*> live{nullptr};
  std::unique_ptr<udt::stream::AdaptiveServer> server;
};

struct RetrainMark {
  int64_t start_ns;
  int64_t end_ns;
};

struct AdaptiveRun {
  size_t measure_from = 0;  // first read of the timed window
  int64_t measure_start_ns = 0;
  int64_t measure_end_ns = 0;
  std::vector<int64_t> due;
  std::vector<int64_t> submit_start;
  std::vector<int64_t> submit_end;
  std::vector<int64_t> ready;
  std::vector<int> tuple;
  std::vector<uint64_t> version;
  std::vector<double> distribution;  // read-major, num_classes each
  std::vector<char> status_ok;
  size_t reads = 0;
  std::vector<RetrainMark> retrains;
  std::vector<double> feedback_us;  // non-retraining Feedback calls
  int64_t feedback_calls = 0;
  int64_t feedback_failed = 0;
  int64_t feedback_dropped = 0;
  int64_t backlog_max = 0;
  udt::serve::BatchingQueue::Stats before;
  udt::serve::BatchingQueue::Stats after;
  bool steady = false;
};

std::unique_ptr<AdaptiveState> CreateAdaptive(const Options& options,
                                              Tracer* tracer, int64_t parent) {
  auto state = std::make_unique<AdaptiveState>(
      MakeData(Mix(options.seed, 4), kAdaptiveSeedTuples, Mix(options.seed, 6),
               kAdaptivePoolTuples, kAdaptiveSamplesPerPdf, tracer, parent));
  state->num_classes = state->data.train.num_classes();
  AdaptiveState* s = state.get();
  udt::stream::AdaptiveServerOptions server_options;
  server_options.model_name = "adaptive";
  server_options.batching.max_batch = 64;
  server_options.batching.max_delay_us = 0;
  server_options.batching.predict.num_threads = 1;
  server_options.retrain.schedule_every = kScheduleEvery;
  server_options.retrain.window_capacity = kAdaptiveWindow;
  server_options.on_retrain = [s](const udt::stream::RetrainReport& report) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->reports.push_back(report);
    udt::stream::AdaptiveServer* server = s->live.load();
    if (report.published && server != nullptr) {
      s->versions[report.version] =
          server->registry().Resolve(server->model_name(), report.version);
    }
  };
  udt::ForestConfig forest;
  forest.num_trees = kForestTrees;
  forest.seed = Mix(options.seed, 5);
  ScopedSpan span(tracer, "setup.train", parent);
  ScopedPin pin(kServerCores, 2);  // the server's drainer inherits it
  udt::StatusOr<std::unique_ptr<udt::stream::AdaptiveServer>> server =
      udt::stream::AdaptiveServer::Create(
          state->data.train, udt::ForestTrainer(forest), server_options);
  UDT_CHECK(server.ok());
  state->server = std::move(*server);
  {
    std::lock_guard<std::mutex> lock(s->mu);
    const uint64_t v = state->server->live_version();
    s->versions[v] =
        state->server->registry().Resolve(state->server->model_name(), v);
    s->reports.clear();
  }
  state->live.store(state->server.get());
  return state;
}

// Drives reads at kAdaptiveRate until the loop is warm — the window is
// full, a retrain has run and the read p50 of 100 ms blocks has settled
// (or `warm_timeout_s` passed) — then for `measure_s` more seconds.
AdaptiveRun DriveAdaptive(AdaptiveState& s, double warm_timeout_s,
                          double measure_s, Tracer* tracer) {
  ScopedPin pin(kClientCores, 2);
  FineTimerSlack slack;
  udt::stream::AdaptiveServer& server = *s.server;
  AdaptiveRun run;
  const size_t k = static_cast<size_t>(s.num_classes);
  const size_t cap =
      static_cast<size_t>(kAdaptiveRate * (warm_timeout_s + measure_s + 1.0));
  std::vector<std::future<ServeResult>> futures(cap);
  run.due.resize(cap);
  run.submit_start.resize(cap);
  run.submit_end.resize(cap);
  run.ready.resize(cap);
  run.tuple.resize(cap);
  run.version.resize(cap);
  run.status_ok.resize(cap);
  run.distribution.resize(cap * k);
  std::atomic<size_t> produced{0};
  std::atomic<size_t> completed{0};
  // Reads issued in all, published before `produced` is bumped past it.
  std::atomic<size_t> issued{SIZE_MAX};

  // Feedback queue: every tenth completed read.
  std::mutex fb_mu;
  std::condition_variable fb_cv;
  std::deque<std::pair<int, ServeResult>> fb_queue;
  bool fb_closed = false;
  // Read by the generator's warm-up check. AdaptiveServer::window_size()
  // would block it behind a running retrain.
  std::atomic<int64_t> retrains_done{0};
  std::atomic<int64_t> labelled{0};

  std::thread feedback([&] {
    ScopedPin pin(kClientCores, 2);
    for (;;) {
      std::pair<int, ServeResult> item;
      {
        std::unique_lock<std::mutex> lock(fb_mu);
        fb_cv.wait(lock, [&] { return fb_closed || !fb_queue.empty(); });
        if (fb_closed) {
          run.feedback_dropped = static_cast<int64_t>(fb_queue.size());
          return;
        }
        item = std::move(fb_queue.front());
        fb_queue.pop_front();
      }
      const udt::UncertainTuple& t = s.data.pool.tuple(item.first);
      const int64_t t0 = NowNs();
      auto report = server.Feedback(t, t.label, item.second);
      const int64_t t1 = NowNs();
      ++run.feedback_calls;
      labelled.fetch_add(1);
      if (!report.ok()) {
        ++run.feedback_failed;
      } else if (report->has_value()) {
        tracer->Record("stream.retrain", 0, -1, t0, t1);
        run.retrains.push_back({t0, t1});
        retrains_done.fetch_add(1);
      } else {
        tracer->Record("stream.feedback", 0, -1, t0, t1);
        run.feedback_us.push_back(Us(t1 - t0));
      }
    }
  });

  std::thread collector([&] {
    ScopedPin pin(kClientCores, 2);
    for (size_t j = 0;; ++j) {
      WaitAbove(produced, j);
      if (j >= issued.load(std::memory_order_acquire)) return;
      ServeResult r = futures[j].get();
      run.ready[j] = NowNs();
      run.status_ok[j] = r.status.ok() && r.distribution.size() == k;
      run.version[j] = r.model_version;
      if (run.status_ok[j]) {
        std::copy(r.distribution.begin(), r.distribution.end(),
                  run.distribution.begin() + static_cast<int64_t>(j * k));
      }
      completed.store(j + 1, std::memory_order_release);
      if (run.status_ok[j] && (j + 1) % kFeedbackEvery == 0) {
        std::lock_guard<std::mutex> lock(fb_mu);
        fb_queue.emplace_back(run.tuple[j], std::move(r));
        fb_cv.notify_one();
      }
    }
  });

  const int pool = s.data.pool.num_tuples();
  const int64_t period = static_cast<int64_t>(1e9 / kAdaptiveRate);
  const int64_t start = NowNs() + 100000;
  const int64_t warm_deadline = start + Ns(warm_timeout_s);
  const int64_t block = Ns(0.1);
  SteadyDetector detector(4, 0.15, 6);
  size_t block_from = 0;
  int64_t next_block = start + block;
  bool measuring = false;
  int64_t end = 0;
  size_t j = 0;
  for (; j < cap; ++j) {
    const int64_t due = start + static_cast<int64_t>(j) * period;
    if (!measuring && due >= next_block) {
      // Warm-up check on the reads of the block that just ended.
      const size_t done = completed.load(std::memory_order_acquire);
      std::vector<double> lat;
      for (size_t i = block_from; i < done; ++i) {
        lat.push_back(Us(run.ready[i] - run.due[i]));
      }
      block_from = done;
      next_block += block;
      const bool settled = !lat.empty() && detector.Add(Median(lat));
      const bool loop_warm =
          labelled.load() >= static_cast<int64_t>(kAdaptiveWindow) &&
          retrains_done.load() > 0;
      if ((settled && loop_warm) || due >= warm_deadline) {
        run.steady = settled && loop_warm;
        if (measure_s <= 0.0) break;
        measuring = true;
        run.measure_from = j;
        run.measure_start_ns = due;
        end = due + Ns(measure_s);
        run.before = server.queue().stats();
      }
    }
    if (measuring && due >= end) break;
    run.due[j] = due;
    WaitUntil(due);
    run.tuple[j] = static_cast<int>(j % static_cast<size_t>(pool));
    run.submit_start[j] = NowNs();
    futures[j] = server.Submit(&s.data.pool.tuple(run.tuple[j]));
    run.submit_end[j] = NowNs();
    produced.store(j + 1, std::memory_order_release);
    produced.notify_one();
    run.backlog_max = std::max<int64_t>(
        run.backlog_max,
        static_cast<int64_t>(j + 1 -
                             completed.load(std::memory_order_acquire)));
  }
  run.reads = j;
  run.measure_end_ns = measuring ? end : start + static_cast<int64_t>(j) * period;
  issued.store(j, std::memory_order_release);
  produced.store(SIZE_MAX, std::memory_order_release);
  produced.notify_one();
  collector.join();
  {
    std::lock_guard<std::mutex> lock(fb_mu);
    fb_closed = true;
    fb_cv.notify_one();
  }
  feedback.join();
  run.after = server.queue().stats();
  return run;
}

// Checks every read against the pure answer of the version it reports.
void CheckAdaptive(AdaptiveState& s, const AdaptiveRun& run, Tally* tally,
                   int64_t* failed_reads) {
  const size_t k = static_cast<size_t>(s.num_classes);
  const int pool = s.data.pool.num_tuples();
  std::map<uint64_t, std::vector<double>> answers;
  std::map<uint64_t, std::vector<char>> known;
  std::lock_guard<std::mutex> lock(s.mu);
  for (size_t j = 0; j < run.reads; ++j) {
    bool ok = run.status_ok[j] != 0;
    if (ok) {
      auto handle = s.versions.find(run.version[j]);
      ok = handle != s.versions.end() && handle->second != nullptr;
      if (ok) {
        std::vector<double>& a = answers[run.version[j]];
        std::vector<char>& have = known[run.version[j]];
        if (a.empty()) {
          a.resize(static_cast<size_t>(pool) * k);
          have.assign(static_cast<size_t>(pool), 0);
        }
        const size_t t = static_cast<size_t>(run.tuple[j]);
        if (!have[t]) {
          udt::serve::ServeSession session(handle->second->servable);
          session.ClassifyInto(s.data.pool.tuple(run.tuple[j]),
                               a.data() + t * k);
          have[t] = 1;
        }
        ok = SameBytes(run.distribution.data() + j * k, a.data() + t * k, k);
      }
    }
    tally->Count(ok);
    if (!ok) ++*failed_reads;
  }
  tally->attempted += run.feedback_calls;
  tally->failed += run.feedback_failed;
}

std::unique_ptr<AdaptiveState> SetUpAdaptive(const Options& options,
                                             Tracer* tracer, Tally* tally,
                                             bool last_rep) {
  ScopedSpan setup(tracer, "setup");
  std::unique_ptr<AdaptiveState> state =
      CreateAdaptive(options, tracer, setup.index());
  if (!last_rep) {
    ScopedSpan span(tracer, "setup.warmup", setup.index());
    AdaptiveRun run = DriveAdaptive(*state, 4.0, 0.0, tracer);
    int64_t failed_reads = 0;
    CheckAdaptive(*state, run, tally, &failed_reads);
  }
  return state;
}

struct AdaptiveSummary {
  std::vector<double> read_us;        // timed window, from due time
  std::vector<double> read_busy_us;   // ... due while a retrain ran
  std::vector<double> read_idle_us;   // ... due while none ran
  std::vector<double> late_us;
  std::vector<double> retrain_s;      // retrains that started in the window
  std::vector<double> submit_us;
  double reads_per_s = 0.0;
};

AdaptiveSummary Summarise(const AdaptiveRun& run) {
  AdaptiveSummary sum;
  for (size_t j = run.measure_from; j < run.reads; ++j) {
    const double us = Us(run.ready[j] - run.due[j]);
    sum.read_us.push_back(us);
    sum.late_us.push_back(Us(run.submit_start[j] - run.due[j]));
    sum.submit_us.push_back(Us(run.submit_end[j] - run.submit_start[j]));
    bool busy = false;
    for (const RetrainMark& r : run.retrains) {
      if (run.due[j] >= r.start_ns && run.due[j] < r.end_ns) busy = true;
    }
    (busy ? sum.read_busy_us : sum.read_idle_us).push_back(us);
  }
  for (const RetrainMark& r : run.retrains) {
    if (r.start_ns >= run.measure_start_ns && r.start_ns < run.measure_end_ns) {
      sum.retrain_s.push_back(Sec(r.end_ns - r.start_ns));
    }
  }
  // Sustained read rate: reads of the window over the time from the first
  // one's due time to the last one's completion.
  int64_t last_ready = run.measure_start_ns;
  for (size_t j = run.measure_from; j < run.reads; ++j) {
    last_ready = std::max(last_ready, run.ready[j]);
  }
  sum.reads_per_s = static_cast<double>(sum.read_us.size()) /
                    Sec(last_ready - run.measure_start_ns);
  return sum;
}

// The timed part of the adaptive workload (after set-up, which for the
// last repetition ends when DriveAdaptive's warm-up ends).
struct AdaptiveTimed {
  AdaptiveRun run;
  AdaptiveSummary summary;
  double warmup_s = 0.0;
};

AdaptiveTimed TimeAdaptive(AdaptiveState& state, double seconds,
                           Tracer* tracer, Tally* tally,
                           int64_t* failed_reads) {
  AdaptiveTimed timed;
  const int64_t t0 = NowNs();
  timed.run = DriveAdaptive(state, 4.0, seconds, tracer);
  timed.warmup_s = Sec(timed.run.measure_start_ns - t0);
  CheckAdaptive(state, timed.run, tally, failed_reads);
  timed.summary = Summarise(timed.run);
  return timed;
}

}  // namespace

int Nproc() { return static_cast<int>(AllowedCpus().size()); }

// ===================================================================
// Untraced runs.

Outcome RunTrain(const Options& options) {
  Tracer off(false);
  Outcome out;
  Tally tally;
  std::vector<double> setup_s;
  auto state = SetUp<TrainState>(
      false, [&] { return SetUpTrain(options, &off, &tally); }, &setup_s);
  TrainRun run = TimeBuilds(*state, options.seconds, 100, &off, &tally);
  std::vector<double> build_us;
  for (double s : run.build_s) build_us.push_back(s * 1e6);
  AddCommon(setup_s, tally, &out);
  out.Add("primary_us", Median(build_us), "us");
  out.Add("secondary_us", Percentile(build_us, 90.0), "us");
  out.Add("throughput_per_s",
          static_cast<double>(run.build_s.size()) / run.elapsed_s, "1/s");
  out.notes.push_back(Format(
      "train: %zu serial builds of %d tuples on %d threads (%d sets), p50 "
      "%.4fs p90 %.4fs p99 %.4fs max %.4fs",
      run.build_s.size(), kTrainTuples, Nproc(), kTrainSets,
      Median(run.build_s), Percentile(run.build_s, 90.0),
      Percentile(run.build_s, 99.0), Percentile(run.build_s, 100.0)));
  return out;
}

Outcome RunBatch(const Options& options) {
  Tracer off(false);
  Outcome out;
  Tally tally;
  std::vector<double> setup_s;
  auto state = SetUp<BatchState>(
      false, [&] { return SetUpBatch(options, &off, &tally); }, &setup_s);
  std::vector<double> call_s[kNumModels];
  TimeBatchCalls(*state, Nproc(), udt::PredictOptions{},
                 options.seconds, &off, &tally, call_s);
  std::vector<double> call_us[kNumModels];
  for (int m = 0; m < kNumModels; ++m) {
    for (double s : call_s[m]) call_us[m].push_back(s * 1e6);
  }
  AddCommon(setup_s, tally, &out);
  out.Add("primary_us", Median(call_us[kUdtTree]), "us");
  out.Add("secondary_us", Median(call_us[kAvgTree]), "us");
  // nproc workers' tuples per second at the median call time, so a
  // stalled call does not move it.
  out.Add("throughput_per_s",
          Nproc() * kBatch / Median(call_s[kForest]), "1/s");
  for (int m = 0; m < kNumModels; ++m) {
    double total = 0.0;
    for (double s : call_s[m]) total += s;
    out.notes.push_back(Format(
        "batch %-6s %zu calls of %d tuples on %d threads: call p50 %.1fus "
        "p99 %.1fus, mean %.0f tuples/s",
        kModelNames[m], call_s[m].size(), kBatch, Nproc(),
        Median(call_us[m]), Percentile(call_us[m], 99.0),
        Nproc() * static_cast<double>(call_s[m].size() * kBatch) /
            total));
  }
  return out;
}

Outcome RunServe(const Options& options) {
  Tracer off(false);
  Outcome out;
  Tally tally;
  std::vector<double> setup_s;
  auto state = SetUp<ServeState>(
      false, [&] { return SetUpServe(options, &off, &tally, false); },
      &setup_s);
  // The phases take turns in kServeRounds rounds, and each metric is the
  // median of its per-round values, so a burst of host noise lands on a
  // few rounds of every phase rather than on all of one phase.
  int64_t cursor = 0;
  const double slot = options.seconds / (3.0 * kServeRounds);
  PhaseResult one, open, sat;
  std::vector<double> one_p50, open_p50, sat_rps;
  for (int r = 0; r < kServeRounds; ++r) {
    PhaseResult a = RunOne(*state, slot, &cursor, &tally);
    PhaseResult b = RunOpen(*state, kServeOpenRate, slot, &cursor, &tally);
    PhaseResult c = RunSaturate(*state, slot, &cursor, &tally);
    one_p50.push_back(Median(a.latency_us));
    open_p50.push_back(Median(b.latency_us));
    sat_rps.push_back(SliceRps(c));
    Merge(&one, a);
    Merge(&open, b);
    Merge(&sat, c);
  }
  AddCommon(setup_s, tally, &out);
  out.Add("primary_us", Median(one_p50), "us");
  out.Add("secondary_us", Median(open_p50), "us");
  out.Add("throughput_per_s", Median(sat_rps), "1/s");
  out.notes.push_back(PhaseNote("one", one));
  out.notes.push_back(PhaseNote("open", open));
  out.notes.push_back(PhaseNote("saturate", sat));
  return out;
}

Outcome RunAdaptive(const Options& options) {
  Tracer off(false);
  Outcome out;
  Tally tally;
  std::vector<double> setup_s;
  int rep = 0;
  std::unique_ptr<AdaptiveState> state;
  AdaptiveTimed timed;
  int64_t failed_reads = 0;
  for (; rep < kSetupReps; ++rep) {
    state.reset();
    const int64_t t0 = NowNs();
    const bool last = rep + 1 == kSetupReps;
    state = SetUpAdaptive(options, &off, &tally, last);
    if (!last) {
      setup_s.push_back(Sec(NowNs() - t0));
      continue;
    }
    // The last set-up ends where the timed window starts.
    timed = TimeAdaptive(*state, options.seconds, &off, &tally, &failed_reads);
    setup_s.push_back(Sec(timed.run.measure_start_ns - t0));
  }
  const AdaptiveSummary& sum = timed.summary;
  std::vector<double> retrain_us;
  for (double s : sum.retrain_s) retrain_us.push_back(s * 1e6);
  AddCommon(setup_s, tally, &out);
  out.Add("primary_us", Median(sum.read_us), "us");
  out.Add("secondary_us", Median(retrain_us), "us");
  out.Add("throughput_per_s", sum.reads_per_s, "1/s");
  out.notes.push_back(Format(
      "adaptive: reads sent %zu succeeded %zu failed %lld  p50 %.1fus p99 "
      "%.1fus (n=%zu)  generator late p99 %.1fus max %.1fus  backlog max "
      "%lld  warm-up %s",
      sum.read_us.size(),
      sum.read_us.size() - static_cast<size_t>(failed_reads),
      static_cast<long long>(failed_reads), Median(sum.read_us),
      Percentile(sum.read_us, 99.0), sum.read_us.size(),
      Percentile(sum.late_us, 99.0), Percentile(sum.late_us, 100.0),
      static_cast<long long>(timed.run.backlog_max),
      timed.run.steady ? "steady" : "timed out"));
  out.notes.push_back(Format(
      "adaptive: %zu retrains in window, p50 %.3fs max %.3fs; feedback "
      "calls %lld failed %lld dropped at end %lld",
      sum.retrain_s.size(), Median(sum.retrain_s),
      Percentile(sum.retrain_s, 100.0),
      static_cast<long long>(timed.run.feedback_calls),
      static_cast<long long>(timed.run.feedback_failed),
      static_cast<long long>(timed.run.feedback_dropped)));
  return out;
}

// ===================================================================
// The traced run.

Outcome RunTraced(const Options& options, Tracer* tracer) {
  Outcome out;
  Tally tally;
  Tracer off(false);
  // A quarter of the run per workload; within it, half untraced and half
  // traced for trace.overhead_frac.
  const double slice = options.seconds / 4.0;
  auto setup_tracer = [&](const char* w) {
    return options.workload == w ? tracer : &off;
  };
  std::map<std::string, double> m;  // name -> value
  std::map<std::string, std::string> units;
  auto put = [&](const std::string& name, double value, const char* unit) {
    m[name] = value;
    units[name] = unit;
  };
  auto overhead = [](double untraced, double traced) {
    return traced / untraced - 1.0;
  };

  // ---- train (split, core, common)
  {
    std::vector<double> setup_s;
    auto state = SetUp<TrainState>(
        true,
        [&] { return SetUpTrain(options, setup_tracer("train"), &tally); },
        &setup_s);
    TrainRun plain = TimeBuilds(*state, slice / 2, 0, &off, &tally);
    TrainRun traced = TimeBuilds(*state, slice / 2, 0, tracer, &tally);
    const udt::SplitCounters& c = traced.stats.counters;
    const double builds = static_cast<double>(traced.build_s.size());
    put("split.entropy_calcs",
        static_cast<double>(c.TotalEntropyCalculations()) / builds, "count");
    put("split.pruned_frac",
        PrunedFraction(c.candidates_pruned, c.dispersion_evaluations),
        "ratio");
    const int64_t pruned_intervals =
        c.intervals_pruned_empty + c.intervals_pruned_homogeneous +
        c.intervals_pruned_linear + c.intervals_pruned_by_bound;
    put("split.intervals_pruned_frac",
        Fraction(static_cast<double>(pruned_intervals),
                 static_cast<double>(c.intervals_total)),
        "ratio");
    put("core.build_s", traced.stats.build_seconds / builds, "s");
    put("core.nodes", traced.stats.nodes / builds, "count");
    put("core.leaves", traced.stats.leaves / builds, "count");
    // Serial builds of set 0 alternate with warm nproc-thread builds of
    // the same set, one at a time: thread scaling (median over median)
    // and byte identity of the nproc-thread tree with the serial one.
    std::vector<double> serial_s, parallel_s;
    for (int r = 0; r < kSpeedupPairs; ++r) {
      serial_s.push_back(
          Build(*state, state->serial, 0, tracer, &tally, nullptr));
      parallel_s.push_back(
          Build(*state, state->parallel, 0, tracer, &tally, nullptr));
    }
    put("common.train_speedup", Median(serial_s) / Median(parallel_s), "x");
    put("trace.overhead_frac.train",
        overhead(Median(plain.build_s), Median(traced.build_s)), "ratio");
  }

  // ---- batch (tree kernels, api sessions)
  {
    std::vector<double> setup_s;
    auto state = SetUp<BatchState>(
        true,
        [&] { return SetUpBatch(options, setup_tracer("batch"), &tally); },
        &setup_s);
    const Served& served = *state->served;
    const udt::Dataset& pool = served.data.pool;
    const size_t k = static_cast<size_t>(served.num_classes);
    const int batches = kPoolTuples / kBatch;
    // Kernels, single thread, on the same 64-tuple batches.
    udt::FlatTraversalScratch scratch;
    std::vector<double> rows(kBatch * k);
    std::vector<double*> row_ptrs(kBatch);
    for (int i = 0; i < kBatch; ++i) row_ptrs[i] = rows.data() + i * k;
    std::vector<const udt::UncertainTuple*> ptrs(pool.num_tuples());
    for (int i = 0; i < pool.num_tuples(); ++i) ptrs[i] = &pool.tuple(i);
    auto kernel_ns = [&](const udt::FlatTree& flat, bool means, bool batch,
                         int model) {
      std::vector<double> per_tuple;
      const int64_t until = NowNs() + Ns(slice / 20);
      for (int64_t i = 0; NowNs() < until; ++i) {
        const int b = static_cast<int>(i % batches);
        const udt::UncertainTuple* const* tuples = ptrs.data() + b * kBatch;
        const int64_t t0 = NowNs();
        if (batch && means) {
          udt::ClassifyFlatMeansBatch(flat, tuples, row_ptrs.data(), kBatch,
                                      &scratch);
        } else if (batch) {
          udt::ClassifyFlatBatch(flat, tuples, row_ptrs.data(), kBatch,
                                 &scratch);
        } else {
          for (int t = 0; t < kBatch; ++t) {
            if (means) {
              udt::ClassifyFlatMeans(flat, *tuples[t], &scratch, row_ptrs[t]);
            } else {
              udt::ClassifyFlat(flat, *tuples[t], &scratch, row_ptrs[t]);
            }
          }
        }
        const int64_t t1 = NowNs();
        tracer->Record(batch ? "tree.batch_kernel" : "tree.scalar_kernel", 0,
                       -1, t0, t1);
        per_tuple.push_back(static_cast<double>(t1 - t0) / kBatch);
        tally.Count(SameBytes(rows.data(),
                              state->reference[model].data() +
                                  static_cast<size_t>(b) * kBatch * k,
                              kBatch * k));
      }
      return Median(per_tuple);
    };
    const udt::FlatTree& udt_flat = served.udt->flat_tree();
    const udt::FlatTree& avg_flat = served.avg->flat_tree();
    put("tree.udt_batch_ns", kernel_ns(udt_flat, false, true, kUdtTree), "ns");
    put("tree.udt_scalar_ns", kernel_ns(udt_flat, false, false, kUdtTree),
        "ns");
    put("tree.avg_batch_ns", kernel_ns(avg_flat, true, true, kAvgTree), "ns");
    put("tree.avg_scalar_ns", kernel_ns(avg_flat, true, false, kAvgTree),
        "ns");
    // One session alone (per tuple), nproc workers with a session each
    // (per call), and one session sharding each call over its own
    // nproc-thread pool (per call).
    const udt::PredictOptions inline_call;
    std::vector<double> single[kNumModels];
    TimeBatchCalls(*state, 1, inline_call, slice / 5, tracer, &tally, single);
    std::vector<double> plain[kNumModels];
    std::vector<double> traced[kNumModels];
    TimeBatchCalls(*state, Nproc(), inline_call, slice / 5, &off,
                   &tally, plain);
    TimeBatchCalls(*state, Nproc(), inline_call, slice / 5, tracer,
                   &tally, traced);
    udt::PredictOptions pooled;
    pooled.num_threads = Nproc();
    std::vector<double> pool_calls[kNumModels];
    TimeBatchCalls(*state, 1, pooled, slice / 5, tracer, &tally, pool_calls);
    for (int i = 0; i < kNumModels; ++i) {
      const std::string name = kModelNames[i];
      put("api.session_1t_ns." + name, Median(single[i]) * 1e9 / kBatch,
          "ns");
      put("api.batch_call_us." + name, Median(traced[i]) * 1e6, "us");
      put("api.pool_call_us." + name, Median(pool_calls[i]) * 1e6, "us");
    }
    udt::StatusOr<udt::BatchResult> result =
        state->workers[0]->udt.PredictBatch(
            std::span<const udt::UncertainTuple>(pool.tuples())
                .subspan(0, kBatch),
            pooled);
    tally.Count(result.ok());
    put("api.threads_used", result.ok() ? result->num_threads_used : 0,
        "count");
    put("trace.overhead_frac.batch",
        overhead(Median(plain[kUdtTree]), Median(traced[kUdtTree])), "ratio");
  }

  // ---- serve (registry, queue)
  {
    // An untraced queue for the overhead base, then the traced one.
    std::vector<double> setup_s;
    double plain_p50 = 0.0;
    {
      auto plain = SetUp<ServeState>(
          true, [&] { return SetUpServe(options, &off, &tally, false); },
          &setup_s);
      int64_t cursor = 0;
      plain_p50 = Median(RunOne(*plain, slice / 8, &cursor, &tally).latency_us);
    }
    auto state = SetUp<ServeState>(
        true,
        [&] {
          return SetUpServe(options, setup_tracer("serve"), &tally, true);
        },
        &setup_s);
    ServeState& s = *state;
    int64_t cursor = 0;
    uint64_t next_id = 1;
    auto phase_spans = [&](const PhaseResult& p, const char* root,
                           std::vector<double>* admit,
                           std::vector<double>* wait,
                           std::vector<double>* complete) {
      const RequestMarks& mk = p.marks;
      const bool aligned =
          p.failed == 0 && s.taps.size() == static_cast<size_t>(p.sent);
      for (size_t j = 0; j < mk.submit_start.size(); ++j) {
        const int64_t begin = mk.due.empty() ? mk.submit_start[j] : mk.due[j];
        const uint64_t id = next_id++;
        const int64_t parent = tracer->Record(root, id, -1, begin, mk.ready[j]);
        tracer->Record("serve.admit", id, parent, mk.submit_start[j],
                       mk.submit_end[j]);
        admit->push_back(Us(mk.submit_end[j] - mk.submit_start[j]));
        if (!aligned) continue;
        const TapMark& tap = s.taps[j];
        const DrainMark& drain = s.drains[static_cast<size_t>(tap.drain)];
        tracer->Record("serve.wait", id, parent, mk.submit_end[j],
                       drain.start_ns);
        tracer->Record("serve.classify", id, parent, drain.start_ns,
                       tap.at_ns);
        tracer->Record("serve.complete", id, parent, tap.at_ns, mk.ready[j]);
        wait->push_back(Us(drain.start_ns - mk.submit_end[j]));
        complete->push_back(Us(mk.ready[j] - tap.at_ns));
      }
    };
    // admit, wait and complete pool phases one and open; resolve is per
    // drain of phase one, classify per drain of phase saturate.
    std::vector<double> admit, wait, complete, resolve, classify;
    PhaseResult one = RunOne(s, slice / 4, &cursor, &tally);
    phase_spans(one, "serve.request.one", &admit, &wait, &complete);
    for (const DrainMark& d : s.drains) {
      tracer->Record("serve.resolve", 0, -1, d.start_ns, d.resolved_ns);
      resolve.push_back(Us(d.resolved_ns - d.start_ns));
    }
    s.drains.clear();
    s.taps.clear();
    PhaseResult open = RunOpen(s, kServeOpenRate, slice / 4, &cursor, &tally);
    phase_spans(open, "serve.request.open", &admit, &wait, &complete);
    s.drains.clear();
    s.taps.clear();
    PhaseResult sat = RunSaturate(s, slice / 4, &cursor, &tally);
    {
      // First tap of each drain: drain start -> first response.
      int64_t last_drain = -1;
      for (const TapMark& tap : s.taps) {
        if (tap.drain == last_drain) continue;
        last_drain = tap.drain;
        const DrainMark& d = s.drains[static_cast<size_t>(tap.drain)];
        classify.push_back(Us(tap.at_ns - d.start_ns));
      }
    }
    s.drains.clear();
    s.taps.clear();
    const udt::serve::BatchingQueue::Stats stats = s.queue->stats();
    put("serve.admit_us", Median(admit), "us");
    put("serve.wait_us", Median(wait), "us");
    put("serve.resolve_us", Median(resolve), "us");
    put("serve.classify_us", Median(classify), "us");
    put("serve.complete_us", Median(complete), "us");
    put("serve.batch_mean",
        Fraction(static_cast<double>(sat.after.served - sat.before.served),
                 static_cast<double>(sat.after.drains - sat.before.drains)),
        "count");
    put("serve.max_drain", static_cast<double>(stats.max_drain), "count");
    put("serve.shed", static_cast<double>(stats.rejected), "count");
    put("serve.backlog_max", static_cast<double>(open.backlog_max), "count");
    put("serve.gen_late_us", Percentile(open.late_us, 99.0), "us");
    put("serve.p99_us.one", Percentile(one.latency_us, 99.0), "us");
    put("serve.p99_us.open", Percentile(open.latency_us, 99.0), "us");
    put("serve.samples.one", static_cast<double>(one.latency_us.size()),
        "count");
    put("serve.samples.open", static_cast<double>(open.latency_us.size()),
        "count");
    put("trace.overhead_frac.serve",
        overhead(plain_p50, Median(one.latency_us)), "ratio");
    out.notes.push_back(PhaseNote("one", one));
    out.notes.push_back(PhaseNote("open", open));
    out.notes.push_back(PhaseNote("saturate", sat));
  }

  // ---- adaptive (stream)
  {
    double plain_p50 = 0.0;
    {
      auto plain = SetUpAdaptive(options, &off, &tally, true);
      int64_t failed_reads = 0;
      AdaptiveTimed t =
          TimeAdaptive(*plain, slice / 2, &off, &tally, &failed_reads);
      plain_p50 = Median(t.summary.read_us);
    }
    Tracer* setup = setup_tracer("adaptive");
    auto state = SetUpAdaptive(options, setup, &tally, true);
    int64_t failed_reads = 0;
    AdaptiveTimed t =
        TimeAdaptive(*state, slice / 2, tracer, &tally, &failed_reads);
    if (setup->enabled()) {
      tracer->Record("setup.warmup", 0, -1, t.run.measure_start_ns -
                                               Ns(t.warmup_s),
                     t.run.measure_start_ns);
    }
    const AdaptiveRun& run = t.run;
    for (size_t j = run.measure_from; j < run.reads; ++j) {
      const uint64_t id = j + 1;
      const int64_t parent =
          tracer->Record("stream.read", id, -1, run.due[j], run.ready[j]);
      tracer->Record("stream.submit", id, parent, run.submit_start[j],
                     run.submit_end[j]);
    }
    const AdaptiveSummary& sum = t.summary;
    int64_t published = 0;
    int64_t reports = 0;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      for (const auto& r : state->reports) {
        ++reports;
        if (r.published) ++published;
      }
    }
    put("stream.submit_us", Median(sum.submit_us), "us");
    put("stream.feedback_us", Median(run.feedback_us), "us");
    put("stream.retrains", static_cast<double>(sum.retrain_s.size()), "count");
    put("stream.published_frac",
        Fraction(static_cast<double>(published),
                 static_cast<double>(reports)),
        "ratio");
    put("stream.drift_events",
        static_cast<double>(state->server->drift_events()), "count");
    put("stream.read_p50_us.retraining", Median(sum.read_busy_us), "us");
    put("stream.read_p50_us.idle", Median(sum.read_idle_us), "us");
    put("stream.gen_late_us", Percentile(sum.late_us, 99.0), "us");
    put("stream.p99_us", Percentile(sum.read_us, 99.0), "us");
    put("stream.samples", static_cast<double>(sum.read_us.size()), "count");
    put("serve.batch_mean.adaptive",
        Fraction(static_cast<double>(run.after.served - run.before.served),
                 static_cast<double>(run.after.drains - run.before.drains)),
        "count");
    put("trace.overhead_frac.adaptive",
        overhead(plain_p50, Median(sum.read_us)), "ratio");
  }

  // ---- set-up spans of the named workload
  {
    std::map<std::string, Tracer::NameTotals> totals = tracer->Totals();
    for (const char* name : {"setup.datagen", "setup.inject", "setup.train",
                             "setup.compile", "setup.warmup"}) {
      auto it = totals.find(name);
      put(std::string(name) + "_s",
          it == totals.end() ? 0.0 : Sec(it->second.total_ns), "s");
    }
    for (const auto& [name, t] : totals) {
      out.notes.push_back(Format("span %-26s n=%-7lld total %.4fs self %.4fs",
                                 name.c_str(), static_cast<long long>(t.count),
                                 Sec(t.total_ns), Sec(t.self_ns)));
    }
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  for (const auto& [name, value] : m) out.Add(name, value, units[name]);
  return out;
}

}  // namespace perfbench
