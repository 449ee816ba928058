#include "core/projection.hpp"

#include <algorithm>
#include <stdexcept>
#include <cmath>
#include <vector>

namespace aequus::core {

std::string to_string(ProjectionKind kind) {
  switch (kind) {
    case ProjectionKind::kDictionaryOrdering: return "dictionary";
    case ProjectionKind::kBitwiseVector: return "bitwise";
    case ProjectionKind::kPercental: return "percental";
  }
  return "?";
}

ProjectionKind projection_kind_from_string(const std::string& name) {
  if (name == "dictionary") return ProjectionKind::kDictionaryOrdering;
  if (name == "bitwise") return ProjectionKind::kBitwiseVector;
  if (name == "percental") return ProjectionKind::kPercental;
  throw std::invalid_argument("unknown projection kind: " + name);
}

json::Value to_json(const ProjectionConfig& config) {
  json::Object obj;
  obj["kind"] = to_string(config.kind);
  obj["bits_per_level"] = config.bits_per_level;
  return json::Value(std::move(obj));
}

namespace {

std::map<std::string, double> project_dictionary(const FairshareSnapshot& tree) {
  struct Entry {
    std::string path;
    FairshareVector vector;
  };
  std::vector<Entry> entries;
  for (const auto& path : tree.user_paths()) {
    entries.push_back({path, *tree.vector_for(path)});
  }
  // Descending sort: best vector first. Stable order for equal vectors.
  std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.vector.compare(b.vector) == std::strong_ordering::greater;
  });
  std::map<std::string, double> out;
  const double n = static_cast<double>(entries.size());
  for (std::size_t rank = 0; rank < entries.size(); ++rank) {
    out[entries[rank].path] = (n - static_cast<double>(rank)) / (n + 1.0);
  }
  return out;
}

std::map<std::string, double> project_bitwise(const FairshareSnapshot& tree, int bits_per_level) {
  // A double's 52-bit mantissa bounds the usable depth: extra levels are
  // truncated (the "finite depth" trade-off of Table I).
  const int max_levels = std::max(1, 52 / std::max(bits_per_level, 1));
  const auto level_count = static_cast<std::size_t>(std::min(tree.depth(), max_levels));
  const double bucket_count = std::exp2(bits_per_level);
  double scale = 1.0;
  for (std::size_t i = 0; i < level_count; ++i) scale *= bucket_count;

  struct Entry {
    std::string path;
    FairshareVector vector;
    double merged = 0.0;
  };
  std::vector<Entry> entries;
  for (const auto& path : tree.user_paths()) {
    Entry entry{path, *tree.vector_for(path)};
    for (std::size_t level = 0; level < level_count; ++level) {
      const double raw = level < entry.vector.depth() ? entry.vector.values()[level] : 0.0;
      // Quantize [-1, 1] into [0, 2^bits - 1].
      double bucket = std::floor((raw + 1.0) / 2.0 * bucket_count);
      bucket = std::clamp(bucket, 0.0, bucket_count - 1.0);
      entry.merged = entry.merged * bucket_count + bucket;
    }
    entries.push_back(std::move(entry));
  }

  // Quantization can map *distinct* vectors to the same merged code
  // (coarse bits_per_level, or levels truncated past the mantissa),
  // which used to silently merge their factors. Group by code and
  // disambiguate collisions with sub-code fractions: the best collider
  // of a non-zero code keeps the undisturbed factor and the rest shift
  // down within (merged - 1, merged], so ordering across non-zero codes
  // is untouched. Code 0 spreads up instead (factors stay in [0, 1]),
  // bounded strictly below the smallest fraction handed out in the next
  // occupied code's group so the two spreads can never meet or invert
  // even when adjacent codes both collide. Equal vectors still get equal
  // factors, and a collision-free code keeps the exact old factor.
  std::map<double, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    groups[entries[i].merged].push_back(i);
  }

  // Pass 1: per group, rank the distinct vectors ascending (worst first).
  struct Group {
    double merged = 0.0;
    std::vector<std::size_t> members;
    std::vector<std::size_t> rank;
    std::size_t distinct = 1;
  };
  std::vector<Group> ordered;
  ordered.reserve(groups.size());
  for (auto& [merged, members] : groups) {
    Group group;
    group.merged = merged;
    group.members = std::move(members);
    std::stable_sort(group.members.begin(), group.members.end(),
                     [&](std::size_t a, std::size_t b) {
                       return entries[a].vector.compare(entries[b].vector) ==
                              std::strong_ordering::less;
                     });
    group.rank.assign(group.members.size(), 0);
    for (std::size_t i = 1; i < group.members.size(); ++i) {
      if (entries[group.members[i]].vector.compare(entries[group.members[i - 1]].vector) !=
          std::strong_ordering::equal) {
        ++group.distinct;
      }
      group.rank[i] = group.distinct - 1;
    }
    ordered.push_back(std::move(group));
  }

  // Pass 2: assign factors. Groups are in ascending code order, so the
  // code-0 group (if present) is first and can see its successor.
  std::map<std::string, double> out;
  for (std::size_t g = 0; g < ordered.size(); ++g) {
    const Group& group = ordered[g];
    const double merged = group.merged;
    const double share = static_cast<double>(group.distinct);
    // Ceiling for code 0's up-spread, in merged units: the smallest
    // fraction the next occupied code's group will receive. That group
    // spreads down within (next - 1, next], bottoming out at
    // next - (next_distinct - 1) / next_distinct > next - 1 >= 0, so the
    // ceiling is positive and the up-spread below it stays ordered
    // under the successor even when both groups collide. The arithmetic
    // lives near magnitude 0..1 where doubles have precision to spare.
    double ceiling = 1.0;
    if (merged == 0.0 && group.distinct > 1 && g + 1 < ordered.size()) {
      const Group& next = ordered[g + 1];
      const double next_share = static_cast<double>(next.distinct);
      ceiling = std::min(1.0, next.merged - (next_share - 1.0) / next_share);
    }
    for (std::size_t i = 0; i < group.members.size(); ++i) {
      const Entry& entry = entries[group.members[i]];
      double factor;
      if (scale <= 1.0) {
        factor = 0.0;  // zero usable levels: nothing to disambiguate with
      } else if (group.distinct == 1) {
        factor = merged / (scale - 1.0);  // no collision: bit-identical to before
      } else if (merged > 0.0) {
        const double frac = (static_cast<double>(group.rank[i]) - (share - 1.0)) / share;
        factor = (merged + frac) / (scale - 1.0);
      } else {
        const double frac = static_cast<double>(group.rank[i]) / share * ceiling;
        factor = frac / (scale - 1.0);
      }
      out[entry.path] = factor;
    }
  }
  return out;
}

}  // namespace

double percental_value(const FairshareSnapshot& tree, const std::string& path) {
  const auto segments = split_path(path);
  const auto* node = &tree.root();
  double target = 1.0;
  double usage = 1.0;
  for (const auto& segment : segments) {
    node = node->find_child(segment);
    if (node == nullptr) return kNeutralFactor;
    target *= node->policy_share;
    usage *= node->usage_share;
  }
  return std::clamp((target - usage + 1.0) / 2.0, 0.0, 1.0);
}

std::map<std::string, double> project(const FairshareSnapshot& tree,
                                      const ProjectionConfig& config) {
  switch (config.kind) {
    case ProjectionKind::kDictionaryOrdering: return project_dictionary(tree);
    case ProjectionKind::kBitwiseVector: return project_bitwise(tree, config.bits_per_level);
    case ProjectionKind::kPercental: {
      std::map<std::string, double> out;
      for (const auto& path : tree.user_paths()) out[path] = percental_value(tree, path);
      return out;
    }
  }
  return {};
}

}  // namespace aequus::core

aequus::core::ProjectionConfig aequus::json::Decoder<aequus::core::ProjectionConfig>::decode(
    const Value& value) {
  aequus::core::ProjectionConfig config;
  config.kind = aequus::core::projection_kind_from_string(
      value.get_string("kind", aequus::core::to_string(config.kind)));
  config.bits_per_level =
      static_cast<int>(value.get_number("bits_per_level", config.bits_per_level));
  return config;
}
