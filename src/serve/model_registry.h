// udt::serve::ModelRegistry — the multi-tenant model store of the serving
// front end: named, monotonically versioned entries, each holding one
// CompiledForest (a single tree compiles to a forest of one).
// Publish/Retire/Resolve are the whole surface; everything else falls out
// of the ownership story.
//
// Atomic hot swap. The registry hands out std::shared_ptr snapshots
// (ModelHandle) and mutates only the map under its mutex — never a
// published entry, which is immutable. A serving loop takes one snapshot
// per micro-batch (Resolve is two pointer copies under a short lock), so:
//   * a batch in flight when v2 is published finishes wholly on v1 — the
//     snapshot co-owns the artifact;
//   * the next batch resolves v2 and runs wholly on it;
//   * no batch ever observes a half-swapped model, because there is no
//     mutable state to tear — swap is a pointer replacement in the map.
// Retiring v1 drops the registry's reference only; in-flight holders keep
// the artifact alive until their batch completes. This is the contract the
// hot-swap-under-load stress test asserts: under concurrent publishes,
// every returned prediction is byte-identical to the pure-v1 or pure-v2
// answer for that tuple.
//
// Versioning. Versions are assigned by the registry, start at 1 per name,
// and never repeat for a name (retiring v3 then publishing again yields
// v4). Resolve(name) returns the live entry with the highest version;
// Resolve(name, v) returns exactly v or null. All methods are thread-safe.

#ifndef UDT_SERVE_MODEL_REGISTRY_H_
#define UDT_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace udt {
namespace serve {

// One published (name, version, artifact) entry. Immutable after Publish;
// shared by the registry and every in-flight snapshot holder.
struct RegisteredModel {
  std::string name;
  uint64_t version = 0;
  CompiledForest servable;
};

// A snapshot of one registry entry: co-owns the artifact, stays valid
// after the entry is retired or superseded. Null means "no live version".
using ModelHandle = std::shared_ptr<const RegisteredModel>;

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Publishes a new version of `name` and returns the assigned version
  // (1 for a fresh name, previous max + 1 after). The new version is
  // immediately what Resolve(name) returns; in-flight holders of older
  // snapshots are unaffected.
  [[nodiscard]] uint64_t Publish(const std::string& name,
                                 CompiledForest servable);

  // Removes one version. NotFound if the name or version is not live.
  // Snapshots already resolved keep serving; only the registry's
  // reference is dropped.
  Status Retire(const std::string& name, uint64_t version);

  // Removes every live version of `name` (the name's version counter is
  // forgotten with it). Returns how many were retired.
  size_t RetireAll(const std::string& name);

  // Latest live version of `name`, or null if none. O(1) under the lock.
  [[nodiscard]] ModelHandle Resolve(const std::string& name) const;

  // Exactly version `version` of `name`, or null.
  [[nodiscard]] ModelHandle Resolve(const std::string& name,
                                    uint64_t version) const;

  // Live names, sorted. For dashboards and tests.
  std::vector<std::string> Names() const;

  // Live versions of `name`, ascending (empty if unknown).
  std::vector<uint64_t> Versions(const std::string& name) const;

 private:
  struct NamedEntry {
    uint64_t next_version = 1;
    // Ascending by version; Resolve(name) is back().
    std::vector<ModelHandle> versions;
  };

  mutable Mutex mu_;
  std::map<std::string, NamedEntry> entries_ UDT_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace udt

#endif  // UDT_SERVE_MODEL_REGISTRY_H_
