#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace udt {
namespace serve {

uint64_t ModelRegistry::Publish(const std::string& name,
                                CompiledForest servable) {
  MutexLock lock(&mu_);
  NamedEntry& named = entries_[name];
  const uint64_t version = named.next_version++;
  // Constructing under the lock is fine: a CompiledForest moves in O(1).
  named.versions.push_back(std::make_shared<RegisteredModel>(
      RegisteredModel{name, version, std::move(servable)}));
  return version;
}

Status ModelRegistry::Retire(const std::string& name, uint64_t version) {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("no model named '%s'", name.c_str()));
  }
  std::vector<ModelHandle>& versions = it->second.versions;
  auto vit = std::find_if(versions.begin(), versions.end(),
                          [version](const ModelHandle& handle) {
                            return handle->version == version;
                          });
  if (vit == versions.end()) {
    return Status::NotFound(StrFormat("model '%s' has no live version %llu",
                                      name.c_str(),
                                      (unsigned long long)version));
  }
  versions.erase(vit);
  // Keep the NamedEntry even when empty: next_version must not restart at
  // 1, or a stale "latest version" note elsewhere could alias a new model.
  return Status::OK();
}

size_t ModelRegistry::RetireAll(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return 0;
  const size_t retired = it->second.versions.size();
  entries_.erase(it);
  return retired;
}

ModelHandle ModelRegistry::Resolve(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.versions.empty()) return nullptr;
  return it->second.versions.back();
}

ModelHandle ModelRegistry::Resolve(const std::string& name,
                                   uint64_t version) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  for (const ModelHandle& handle : it->second.versions) {
    if (handle->version == version) return handle;
  }
  return nullptr;
}

std::vector<std::string> ModelRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, named] : entries_) {
    if (!named.versions.empty()) names.push_back(name);
  }
  return names;
}

std::vector<uint64_t> ModelRegistry::Versions(const std::string& name) const {
  MutexLock lock(&mu_);
  std::vector<uint64_t> versions;
  auto it = entries_.find(name);
  if (it == entries_.end()) return versions;
  versions.reserve(it->second.versions.size());
  for (const ModelHandle& handle : it->second.versions) {
    versions.push_back(handle->version);
  }
  return versions;
}

}  // namespace serve
}  // namespace udt
