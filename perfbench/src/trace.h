// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark, around its calls into the library's public functions;
// they stay in memory and are written out once, when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // a string literal
  uint64_t id;       // spans of one request share it; 0 = no request
  int64_t parent;    // index of the parent span, -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // A shared disabled tracer, for calls that are never traced.
  static Tracer& Off() {
    static Tracer off(false);
    return off;
  }

  // Records a finished span and returns its index (a parent handle for
  // later children). A no-op returning -1 when tracing is off.
  int64_t Record(const char* name, uint64_t id, int64_t parent,
                 int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  // Opens a span whose end is not known yet; Close() sets it.
  int64_t Open(const char* name, uint64_t id, int64_t parent) {
    return Record(name, id, parent, NowNs(), -1);
  }
  void Close(int64_t index) {
    if (index < 0) return;
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = end;
  }

  // Per span name: count, total duration and total self time (duration
  // minus the part covered by the span's children), in nanoseconds.
  struct NameTotals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, NameTotals> Totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.end_ns >= 0) {
        children[static_cast<size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
      }
    }
    std::map<std::string, NameTotals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      NameTotals& t = totals[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += SelfTime(s.start_ns, s.end_ns, children[i]);
    }
    return totals;
  }

  // Writes every span as one JSON object per line, times relative to the
  // first span. Returns false when the file cannot be written.
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t epoch = spans_.empty() ? 0 : spans_[0].start_ns;
    for (const Span& s : spans_) epoch = std::min(epoch, s.start_ns);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns - epoch),
                   static_cast<long long>(s.end_ns < 0 ? -1
                                                       : s.end_ns - epoch));
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1)
      : tracer_(tracer), index_(tracer->Open(name, 0, parent)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
