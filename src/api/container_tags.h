// Wire tags shared by the versioned persistence containers ("udt-model
// v1", "udt-forest-model v1", "udt-forest v1"): the ModelKind and
// ForestVote tag maps, plus the bitwise table comparison LayoutEquals
// builds on. One copy keeps a tag a container serialises parseable by
// every sibling container forever — adding an enum value means touching
// exactly this header.

#ifndef UDT_API_CONTAINER_TAGS_H_
#define UDT_API_CONTAINER_TAGS_H_

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "api/forest.h"
#include "api/model.h"
#include "common/statusor.h"

namespace udt {
namespace wire {

inline const char* KindTag(ModelKind kind) {
  return kind == ModelKind::kAveraging ? "avg" : "udt";
}

inline StatusOr<ModelKind> ParseKindTag(std::string_view tag) {
  if (tag == "avg") return ModelKind::kAveraging;
  if (tag == "udt") return ModelKind::kUdt;
  return Status::InvalidArgument("unknown model kind: " + std::string(tag));
}

inline const char* VoteTag(ForestVote vote) {
  return vote == ForestVote::kAverage ? "avg" : "majority";
}

inline StatusOr<ForestVote> ParseVoteTag(std::string_view tag) {
  if (tag == "avg") return ForestVote::kAverage;
  if (tag == "majority") return ForestVote::kMajority;
  return Status::InvalidArgument("unknown forest vote: " + std::string(tag));
}

// Byte equality of two plain-data arrays — the primitive behind every
// LayoutEquals.
template <typename T>
bool BitwiseEquals(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace wire
}  // namespace udt

#endif  // UDT_API_CONTAINER_TAGS_H_
