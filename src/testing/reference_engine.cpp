// Frozen oracle implementations; see reference_engine.hpp for why this
// file must not change.
#include "testing/reference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace aequus::testing {

using core::FairshareSnapshot;
using core::FairshareSnapshotPtr;

namespace {

void annotate(const core::FairshareAlgorithm& algorithm, const core::PolicyTree::Node& policy_node,
              const core::UsageTree& usage, std::vector<std::string>& prefix,
              FairshareSnapshot::Node& out) {
  out.name = policy_node.name;
  double share_total = 0.0;
  for (const auto& child : policy_node.children) share_total += std::max(child.share, 0.0);
  double usage_total = 0.0;
  std::vector<double> child_usage(policy_node.children.size(), 0.0);
  for (std::size_t i = 0; i < policy_node.children.size(); ++i) {
    prefix.push_back(policy_node.children[i].name);
    child_usage[i] = usage.usage(core::join_path(prefix));
    prefix.pop_back();
    usage_total += child_usage[i];
  }
  out.children.reserve(policy_node.children.size());
  for (std::size_t i = 0; i < policy_node.children.size(); ++i) {
    const auto& policy_child = policy_node.children[i];
    auto child_out = std::make_shared<FairshareSnapshot::Node>();
    child_out->policy_share =
        share_total > 0.0 ? std::max(policy_child.share, 0.0) / share_total : 0.0;
    child_out->usage_share = usage_total > 0.0 ? child_usage[i] / usage_total : 0.0;
    child_out->distance =
        algorithm.node_distance(child_out->policy_share, child_out->usage_share);
    prefix.push_back(policy_child.name);
    annotate(algorithm, policy_child, usage, prefix, *child_out);
    prefix.pop_back();
    out.children.push_back(std::move(child_out));
  }
}

void mark_all_groups_dirty(auto& node) {
  node.children_dirty = true;
  node.needs_visit = true;
  for (auto& child : node.children) mark_all_groups_dirty(*child);
}

}  // namespace

FairshareSnapshotPtr reference_annotate(const core::FairshareConfig& config,
                                        const core::PolicyTree& policy,
                                        const core::UsageTree& usage) {
  auto root = std::make_shared<FairshareSnapshot::Node>();
  std::vector<std::string> prefix;
  annotate(core::FairshareAlgorithm(config), policy.root(), usage, prefix, *root);
  root->name.assign(1, '/');
  root->policy_share = 1.0;
  root->usage_share = usage.empty() ? 0.0 : 1.0;
  root->distance = 0.0;
  return std::make_shared<const FairshareSnapshot>(std::move(root), 1, config.resolution,
                                                   policy.depth());
}

ReferenceMapEngine::Node* ReferenceMapEngine::Node::find_child(const std::string& child_name) {
  for (auto& child : children) {
    if (child != nullptr && child->name == child_name) return child.get();
  }
  return nullptr;
}

ReferenceMapEngine::ReferenceMapEngine(core::FairshareConfig config, core::DecayConfig decay)
    : algorithm_(config), decay_(decay) {
  root_.name.assign(1, '/');
  root_.path = root_.name;
}

void ReferenceMapEngine::set_policy(const core::PolicyTree& policy) {
  sync_policy(root_, policy.root());
  depth_ = policy.depth();
}

bool ReferenceMapEngine::sync_policy(Node& node, const core::PolicyTree::Node& policy_node) {
  bool same_structure = node.children.size() == policy_node.children.size();
  if (same_structure) {
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (node.children[i]->name != policy_node.children[i].name) {
        same_structure = false;
        break;
      }
    }
  }
  bool group_changed = false;
  if (!same_structure) {
    std::vector<std::unique_ptr<Node>> next;
    next.reserve(policy_node.children.size());
    for (const auto& policy_child : policy_node.children) {
      std::unique_ptr<Node> child;
      for (auto& old : node.children) {
        if (old != nullptr && old->name == policy_child.name) {
          child = std::move(old);
          break;
        }
      }
      if (child == nullptr) {
        child = std::make_unique<Node>();
        child->name = policy_child.name;
        child->path =
            (node.path.size() == 1 ? node.path : node.path + "/") + policy_child.name;
      }
      next.push_back(std::move(child));
    }
    node.children = std::move(next);
    group_changed = true;
  }
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i]->raw_share != policy_node.children[i].share) {
      node.children[i]->raw_share = policy_node.children[i].share;
      group_changed = true;
    }
  }
  if (group_changed) node.children_dirty = true;
  bool any = group_changed;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    any |= sync_policy(*node.children[i], policy_node.children[i]);
  }
  if (any) node.needs_visit = true;
  return any;
}

void ReferenceMapEngine::mark_leaf_dirty(const std::string& leaf_path) {
  const auto segments = core::split_path(leaf_path);
  Node* node = &root_;
  node->needs_visit = true;
  for (const auto& segment : segments) {
    Node* child = node->find_child(segment);
    if (child == nullptr) break;
    node->children_dirty = true;
    child->sum_stale = true;
    child->needs_visit = true;
    node = child;
  }
}

void ReferenceMapEngine::set_leaf_value(const std::string& leaf_path, double value) {
  const auto it = leaf_values_.find(leaf_path);
  if (value > 0.0) {
    if (it != leaf_values_.end() && it->second == value) return;
    leaf_values_[leaf_path] = value;
  } else {
    if (it == leaf_values_.end()) return;
    leaf_values_.erase(it);
  }
  mark_leaf_dirty(leaf_path);
}

void ReferenceMapEngine::apply_usage(const std::string& user_path, double amount,
                                     double bin_time) {
  if (!std::isfinite(amount) || amount < 0.0) {
    throw std::invalid_argument("ReferenceMapEngine::apply_usage: bad amount");
  }
  if (amount == 0.0) return;
  const std::string path = core::join_path(core::split_path(user_path));
  BinnedLeaf& leaf = leaf_bins_[path];
  leaf.bins.emplace_back(bin_time, amount);
  leaf.cached_value = decay_.decayed_total(leaf.bins, epoch_);
  leaf.cached_epoch = epoch_;
  leaf.cached = true;
  set_leaf_value(path, leaf.cached_value);
}

void ReferenceMapEngine::set_usage(const core::UsageTree& decayed) {
  leaf_bins_.clear();
  const auto& next = decayed.leaves();
  auto it = leaf_values_.begin();
  auto jt = next.begin();
  while (it != leaf_values_.end() || jt != next.end()) {
    if (jt == next.end() || (it != leaf_values_.end() && it->first < jt->first)) {
      mark_leaf_dirty(it->first);
      ++it;
    } else if (it == leaf_values_.end() || jt->first < it->first) {
      mark_leaf_dirty(jt->first);
      ++jt;
    } else {
      if (it->second != jt->second) mark_leaf_dirty(it->first);
      ++it;
      ++jt;
    }
  }
  leaf_values_ = next;
}

void ReferenceMapEngine::set_decay_epoch(double now) {
  epoch_ = now;
  for (auto& [path, leaf] : leaf_bins_) {
    if (leaf.cached && leaf.cached_epoch == now) continue;
    const double value = decay_.decayed_total(leaf.bins, now);
    leaf.cached_epoch = now;
    leaf.cached = true;
    leaf.cached_value = value;
    set_leaf_value(path, value);
  }
}

void ReferenceMapEngine::set_decay(core::DecayConfig decay) {
  decay_ = core::Decay(decay);
  for (auto& [path, leaf] : leaf_bins_) leaf.cached = false;
  set_decay_epoch(epoch_);
}

void ReferenceMapEngine::set_config(core::FairshareConfig config) {
  algorithm_ = core::FairshareAlgorithm(config);
  mark_all_groups_dirty(root_);
  force_republish_ = true;
}

double ReferenceMapEngine::subtree_sum(const std::string& path) const {
  double total = 0.0;
  for (auto it = leaf_values_.lower_bound(path);
       it != leaf_values_.end() && it->first.compare(0, path.size(), path) == 0; ++it) {
    const std::string& leaf = it->first;
    if (leaf.size() == path.size() || leaf[path.size()] == '/') total += it->second;
  }
  return total;
}

void ReferenceMapEngine::refresh(Node& node) {
  if (node.children_dirty) {
    double share_total = 0.0;
    for (const auto& child : node.children) {
      share_total += std::max(child->raw_share, 0.0);
    }
    double usage_total = 0.0;
    for (auto& child : node.children) {
      if (child->sum_stale) {
        child->subtree_usage = subtree_sum(child->path);
        child->sum_stale = false;
      }
      usage_total += child->subtree_usage;
    }
    for (auto& child : node.children) {
      const double policy_share =
          share_total > 0.0 ? std::max(child->raw_share, 0.0) / share_total : 0.0;
      const double usage_share = usage_total > 0.0 ? child->subtree_usage / usage_total : 0.0;
      const double distance = algorithm_.node_distance(policy_share, usage_share);
      if (policy_share != child->policy_share || usage_share != child->usage_share ||
          distance != child->distance) {
        child->policy_share = policy_share;
        child->usage_share = usage_share;
        child->distance = distance;
        child->value_changed = true;
      }
    }
    node.children_dirty = false;
  }
  for (auto& child : node.children) {
    if (child->needs_visit || child->children_dirty) refresh(*child);
  }
}

bool ReferenceMapEngine::publish_node(Node& node) {
  bool child_republished = false;
  for (auto& child : node.children) {
    if (child->needs_visit || child->value_changed || child->published == nullptr) {
      child_republished |= publish_node(*child);
    }
  }
  node.needs_visit = false;
  const bool rebuild = node.value_changed || node.published == nullptr || child_republished;
  node.value_changed = false;
  if (!rebuild) return false;
  auto snapshot_node = std::make_shared<FairshareSnapshot::Node>();
  snapshot_node->name = node.name;
  snapshot_node->policy_share = node.policy_share;
  snapshot_node->usage_share = node.usage_share;
  snapshot_node->distance = node.distance;
  snapshot_node->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    snapshot_node->children.push_back(child->published);
  }
  node.published = std::move(snapshot_node);
  return true;
}

FairshareSnapshotPtr ReferenceMapEngine::snapshot() {
  const double root_usage = leaf_values_.empty() ? 0.0 : 1.0;
  if (root_.policy_share != 1.0 || root_.usage_share != root_usage ||
      root_.distance != 0.0) {
    root_.policy_share = 1.0;
    root_.usage_share = root_usage;
    root_.distance = 0.0;
    root_.value_changed = true;
  }
  const bool dirty = root_.needs_visit || root_.children_dirty || root_.value_changed ||
                     force_republish_;
  if (dirty || current() == nullptr) {
    refresh(root_);
    const bool changed = publish_node(root_);
    if (changed || force_republish_ || current() == nullptr) {
      ++generation_;
      auto next = std::make_shared<const FairshareSnapshot>(
          root_.published, generation_, algorithm_.config().resolution, depth_);
      const std::lock_guard<std::mutex> guard(publish_mutex_);
      published_ = std::move(next);
    }
    force_republish_ = false;
  }
  return current();
}

}  // namespace aequus::testing
