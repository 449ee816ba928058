#include "core/snapshot.hpp"

#include <algorithm>

namespace aequus::core {

namespace {

const FairshareSnapshot::Node& empty_root() {
  static const FairshareSnapshot::Node node{std::string(1, '/'), 1.0, 0.0, 0.0, {}};
  return node;
}

void collect_leaves(const FairshareSnapshot::Node& node, std::vector<std::string>& prefix,
                    std::vector<std::string>& out) {
  if (node.leaf()) {
    out.push_back(join_path(prefix));
    return;
  }
  for (const auto& child : node.children) {
    prefix.push_back(child->name);
    collect_leaves(*child, prefix, out);
    prefix.pop_back();
  }
}

json::Value node_to_json(const FairshareSnapshot::Node& node) {
  json::Object obj;
  obj["name"] = node.name;
  obj["policy"] = node.policy_share;
  obj["usage"] = node.usage_share;
  obj["distance"] = node.distance;
  if (!node.children.empty()) {
    json::Array children;
    for (const auto& child : node.children) children.push_back(node_to_json(*child));
    obj["children"] = std::move(children);
  }
  return json::Value(std::move(obj));
}

std::shared_ptr<const FairshareSnapshot::Node> node_from_json(const json::Value& value) {
  auto node = std::make_shared<FairshareSnapshot::Node>();
  node->name = value.get_string("name");
  node->policy_share = value.get_number("policy");
  node->usage_share = value.get_number("usage");
  node->distance = value.get_number("distance");
  if (const auto children = value.find("children")) {
    for (const auto& child : children->get().as_array()) {
      node->children.push_back(node_from_json(child));
    }
  }
  return node;
}

int node_depth(const FairshareSnapshot::Node& node) {
  int deepest = 0;
  for (const auto& child : node.children) {
    deepest = std::max(deepest, 1 + node_depth(*child));
  }
  return deepest;
}

}  // namespace

const FairshareSnapshot::Node* FairshareSnapshot::Node::find_child(
    const std::string& child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

FairshareSnapshot::FairshareSnapshot(std::shared_ptr<const Node> root, std::uint64_t generation,
                                     int resolution, int depth)
    : root_(std::move(root)), generation_(generation), resolution_(resolution), depth_(depth) {}

FairshareSnapshotPtr FairshareSnapshot::with_factors(const FairshareSnapshotPtr& base,
                                                     std::map<std::string, double> path_factors,
                                                     std::map<std::string, double> user_factors) {
  auto enriched = std::make_shared<FairshareSnapshot>(*base);
  enriched->path_factors_ = std::move(path_factors);
  enriched->user_factors_ = std::move(user_factors);
  return enriched;
}

const FairshareSnapshot::Node& FairshareSnapshot::root() const noexcept {
  return root_ != nullptr ? *root_ : empty_root();
}

const FairshareSnapshot::Node* FairshareSnapshot::find(const std::string& path) const {
  const auto segments = split_path(path);
  const Node* node = &root();
  for (const auto& segment : segments) {
    node = node->find_child(segment);
    if (node == nullptr) return nullptr;
  }
  return node;
}

std::optional<FairshareVector> FairshareSnapshot::vector_for(const std::string& path) const {
  const auto segments = split_path(path);
  std::vector<double> values;
  const Node* node = &root();
  for (const auto& segment : segments) {
    node = node->find_child(segment);
    if (node == nullptr) return std::nullopt;
    values.push_back(node->distance);
  }
  FairshareVector vector(std::move(values), resolution_);
  return vector.padded_to(static_cast<std::size_t>(depth_));
}

std::vector<std::string> FairshareSnapshot::user_paths() const {
  std::vector<std::string> out;
  std::vector<std::string> prefix;
  if (root().leaf()) return out;
  collect_leaves(root(), prefix, out);
  return out;
}

double FairshareSnapshot::factor_for(const std::string& user) const {
  if (const auto it = user_factors_.find(user); it != user_factors_.end()) return it->second;
  if (const auto it = path_factors_.find(user); it != path_factors_.end()) return it->second;
  // Absent leaf (e.g. a user churned in after this generation was cut):
  // the documented neutral resolution, never a priority-zeroing 0.0.
  return kNeutralFactor;
}

json::Value FairshareSnapshot::tree_to_json() const {
  json::Object obj;
  obj["resolution"] = resolution_;
  obj["tree"] = node_to_json(root());
  return json::Value(std::move(obj));
}

json::Value FairshareSnapshot::to_json(bool include_tree) const {
  json::Object obj;
  obj["generation"] = static_cast<double>(generation_);
  obj["resolution"] = resolution_;
  json::Object users;
  for (const auto& [user, factor] : user_factors_) users[user] = factor;
  obj["users"] = std::move(users);
  if (!path_factors_.empty()) {
    json::Object paths;
    for (const auto& [path, factor] : path_factors_) paths[path] = factor;
    obj["paths"] = std::move(paths);
  }
  if (include_tree && root_ != nullptr) {
    obj["tree"] = node_to_json(*root_);
  }
  return json::Value(std::move(obj));
}

FairshareSnapshotPtr FairshareSnapshot::from_json(const json::Value& value) {
  auto snapshot = std::make_shared<FairshareSnapshot>();
  snapshot->generation_ = static_cast<std::uint64_t>(value.get_number("generation", 0.0));
  snapshot->resolution_ =
      static_cast<int>(value.get_number("resolution", kDefaultResolution));
  if (const auto users = value.find("users")) {
    for (const auto& [user, factor] : users->get().as_object()) {
      snapshot->user_factors_[user] = factor.as_number();
    }
  }
  if (const auto paths = value.find("paths")) {
    for (const auto& [path, factor] : paths->get().as_object()) {
      snapshot->path_factors_[path] = factor.as_number();
    }
  }
  if (const auto tree = value.find("tree")) {
    snapshot->root_ = node_from_json(tree->get());
    snapshot->depth_ = node_depth(*snapshot->root_);
  }
  return snapshot;
}

}  // namespace aequus::core
