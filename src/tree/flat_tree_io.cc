#include "tree/flat_tree_io.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace udt {
namespace {

// Hostile-header allocation caps. Node counts get the common declared-count
// bound; table entries get a higher cap because Serialize writes them
// unbounded (child slots scale with nodes x arity, leaf doubles with
// leaves x classes), so Load must accept any artifact Save can produce
// while still refusing allocations a hostile header could demand (the cap
// bounds each table at half a gigabyte).
constexpr int kMaxDeclaredCount = 1 << 20;
constexpr long long kMaxTableCount = 1ll << 26;

// Reads one table line of exactly `count` space-separated tokens parsed by
// `parse_one`. Serialize writes each table on a single line; a count
// mismatch (a truncated or padded table) fails with the reader's absolute
// line number. A zero-entry table writes no line at all, so none is read.
template <typename T, typename Parser>
Status ReadTokenLine(LineReader* reader, size_t count, const char* what,
                     Parser parse_one, std::vector<T>* out) {
  out->clear();
  out->reserve(count);
  if (count == 0) return Status::OK();
  UDT_RETURN_NOT_OK(reader->Next(StrFormat("%s table", what)));
  const std::vector<std::string> tokens = SplitString(reader->line(), ' ');
  if (tokens.size() != count) {
    return reader->Error(StrFormat("%s table holds %zu entries, expected %zu",
                                   what, tokens.size(), count));
  }
  for (const std::string& token : tokens) {
    std::optional<T> value = parse_one(token);
    if (!value) {
      return reader->Error(
          StrFormat("bad %s entry: %s", what, token.c_str()));
    }
    out->push_back(*value);
  }
  return Status::OK();
}

std::optional<int32_t> ParseInt32(const std::string& token) {
  // ParseInt rejects negatives; the tables use -1 as the null marker.
  if (!token.empty() && token[0] == '-') {
    std::optional<int> v = ParseInt(std::string_view(token).substr(1));
    if (!v) return std::nullopt;
    return static_cast<int32_t>(-*v);
  }
  std::optional<int> v = ParseInt(token);
  if (!v) return std::nullopt;
  return static_cast<int32_t>(*v);
}

}  // namespace

void WriteFlatTreeBody(const FlatTree& flat, std::ostream& out) {
  out << StrFormat("tables nodes=%d children=%zu leaves=%zu\n",
                   flat.num_nodes(), flat.child_table.size(),
                   flat.leaf_values.size());
  // One record per line: kind attribute split first num_children. The
  // split point is a hexfloat so the load-side layout is bit-identical.
  for (int i = 0; i < flat.num_nodes(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    out << StrFormat("n %d %d %a %d %d\n", static_cast<int>(flat.kind[ui]),
                     flat.attribute[ui], flat.split_point[ui], flat.first[ui],
                     flat.num_children[ui]);
  }
  for (size_t i = 0; i < flat.child_table.size(); ++i) {
    out << flat.child_table[i]
        << (i + 1 == flat.child_table.size() ? "\n" : " ");
  }
  for (size_t i = 0; i < flat.leaf_values.size(); ++i) {
    out << StrFormat("%a", flat.leaf_values[i])
        << (i + 1 == flat.leaf_values.size() ? "\n" : " ");
  }
}

StatusOr<FlatTree> ReadFlatTreeBody(LineReader* reader, int num_classes) {
  UDT_RETURN_NOT_OK(reader->Next("tables"));
  int num_nodes = -1;
  long long num_child_entries = -1;
  long long num_leaf_values = -1;
  if (std::sscanf(reader->line().c_str(),
                  "tables nodes=%d children=%lld leaves=%lld", &num_nodes,
                  &num_child_entries, &num_leaf_values) != 3 ||
      num_nodes < 1 || num_nodes > kMaxDeclaredCount ||
      num_child_entries < 0 || num_child_entries > kMaxTableCount ||
      num_leaf_values < 0 || num_leaf_values > kMaxTableCount) {
    return reader->Error("bad tables line: " + reader->line());
  }

  FlatTree flat;
  flat.num_classes = num_classes;
  flat.kind.reserve(static_cast<size_t>(num_nodes));
  flat.attribute.reserve(static_cast<size_t>(num_nodes));
  flat.split_point.reserve(static_cast<size_t>(num_nodes));
  flat.first.reserve(static_cast<size_t>(num_nodes));
  flat.num_children.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    UDT_RETURN_NOT_OK(reader->Next("node record"));
    const std::string& line = reader->line();
    std::vector<std::string> fields = SplitString(line, ' ');
    if (fields.size() != 6 || fields[0] != "n") {
      return reader->Error("bad node record: " + line);
    }
    std::optional<int> node_kind = ParseInt(fields[1]);
    std::optional<int32_t> attribute = ParseInt32(fields[2]);
    std::optional<double> split = ParseDouble(fields[3]);
    std::optional<int32_t> first = ParseInt32(fields[4]);
    std::optional<int32_t> children = ParseInt32(fields[5]);
    if (!node_kind || *node_kind < 0 || *node_kind > 2 || !attribute ||
        !split || !first || !children) {
      return reader->Error("bad node record: " + line);
    }
    flat.kind.push_back(static_cast<uint8_t>(*node_kind));
    flat.attribute.push_back(*attribute);
    flat.split_point.push_back(*split);
    flat.first.push_back(*first);
    flat.num_children.push_back(*children);
  }

  UDT_RETURN_NOT_OK(ReadTokenLine(
      reader, static_cast<size_t>(num_child_entries), "child",
      [](const std::string& t) { return ParseInt32(t); }, &flat.child_table));
  UDT_RETURN_NOT_OK(ReadTokenLine(
      reader, static_cast<size_t>(num_leaf_values), "leaf",
      [](const std::string& t) { return ParseDouble(t); }, &flat.leaf_values));
  AssignDfsRanks(&flat);
  return flat;
}

Status ValidateFlatTree(const FlatTree& flat, const Schema& schema,
                        const std::string& context) {
  const int n = flat.num_nodes();
  if (n < 1) return Status::InvalidArgument(context + ": empty tree");
  if (flat.num_classes != schema.num_classes()) {
    return Status::InvalidArgument(context + ": class count mismatch");
  }
  const size_t un = static_cast<size_t>(n);
  if (flat.attribute.size() != un || flat.split_point.size() != un ||
      flat.first.size() != un || flat.num_children.size() != un ||
      flat.dfs_rank.size() != un) {
    return Status::InvalidArgument(context + ": ragged node arrays");
  }
  if (flat.leaf_values.size() % static_cast<size_t>(flat.num_classes) != 0) {
    return Status::InvalidArgument(context + ": ragged leaf table");
  }
  for (int i = 0; i < n; ++i) {
    const size_t ui = static_cast<size_t>(i);
    const int32_t first = flat.first[ui];
    switch (static_cast<FlatNodeKind>(flat.kind[ui])) {
      case FlatNodeKind::kLeaf:
        if (flat.attribute[ui] != -1) {
          return Status::InvalidArgument(context + ": leaf with attribute");
        }
        if (first < 0 ||
            static_cast<size_t>(first) + static_cast<size_t>(flat.num_classes) >
                flat.leaf_values.size()) {
          return Status::InvalidArgument(context +
                                         ": leaf offset out of range");
        }
        break;
      case FlatNodeKind::kNumerical: {
        const int32_t attr = flat.attribute[ui];
        if (attr < 0 || attr >= schema.num_attributes() ||
            schema.attribute(attr).kind != AttributeKind::kNumerical) {
          return Status::InvalidArgument(context +
                                         ": bad numerical attribute id");
        }
        // 64-bit compare: first can be INT32_MAX in a hostile file, and
        // first + 1 must not wrap past the check.
        if (first <= i || static_cast<int64_t>(first) + 1 >= n) {
          return Status::InvalidArgument(context +
                                         ": numerical child out of range");
        }
        break;
      }
      case FlatNodeKind::kCategorical: {
        const int32_t attr = flat.attribute[ui];
        if (attr < 0 || attr >= schema.num_attributes() ||
            schema.attribute(attr).kind != AttributeKind::kCategorical) {
          return Status::InvalidArgument(context +
                                         ": bad categorical attribute id");
        }
        const int32_t arity = flat.num_children[ui];
        if (arity < 1 || arity != schema.attribute(attr).num_categories) {
          return Status::InvalidArgument(context + ": bad arity");
        }
        if (first < 0 || static_cast<size_t>(first) +
                             static_cast<size_t>(arity) >
                             flat.child_table.size()) {
          return Status::InvalidArgument(context +
                                         ": child-table offset out of range");
        }
        for (int32_t v = 0; v < arity; ++v) {
          const int32_t child =
              flat.child_table[static_cast<size_t>(first + v)];
          if (child != -1 && (child <= i || child >= n)) {
            return Status::InvalidArgument(
                context + ": categorical child out of range");
          }
        }
        break;
      }
      default:
        return Status::InvalidArgument(context + ": unknown node kind");
    }
  }
  return Status::OK();
}

}  // namespace udt
