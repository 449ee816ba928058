// Immutable, generation-stamped fairshare state (the read side of the
// incremental FairshareEngine).
//
// A FairshareSnapshot is a persistent (structurally shared) copy of the
// annotated fairshare tree plus the projected per-user factors layered on
// top of it. Snapshots are published behind
// `std::shared_ptr<const FairshareSnapshot>` handles: once published they
// never change, so scheduler plugins, libaequus clients, and parallel
// sweep workers read them lock-free while the engine keeps mutating its
// private working tree. Consecutive generations share every subtree the
// update did not touch.
//
// The generation counter orders snapshots from one engine: a reader can
// cheaply detect "nothing changed" by comparing generations instead of
// trees. Client-side snapshots decoded from the wire may carry factors
// only (no tree) — factor_for() still works, tree queries report an
// empty tree.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fairshare.hpp"

namespace aequus::core {

class FairshareSnapshot;
using FairshareSnapshotPtr = std::shared_ptr<const FairshareSnapshot>;

class FairshareSnapshot {
 public:
  /// One annotated node; children are shared with other generations when
  /// their subtree did not change.
  struct Node {
    std::string name;
    double policy_share = 0.0;  ///< normalized among siblings
    double usage_share = 0.0;   ///< normalized among siblings
    double distance = 0.0;      ///< the per-node fairshare value
    std::vector<std::shared_ptr<const Node>> children;

    [[nodiscard]] const Node* find_child(const std::string& child_name) const;
    [[nodiscard]] bool leaf() const noexcept { return children.empty(); }
  };

  FairshareSnapshot() = default;
  FairshareSnapshot(std::shared_ptr<const Node> root, std::uint64_t generation, int resolution,
                    int depth);

  /// Derive a snapshot that shares `base`'s tree (same generation) but
  /// carries projected factors: leaf path -> factor and leaf name ->
  /// factor. This is how the FCS layers its projection on the engine's
  /// published tree without copying it.
  [[nodiscard]] static FairshareSnapshotPtr with_factors(
      const FairshareSnapshotPtr& base, std::map<std::string, double> path_factors,
      std::map<std::string, double> user_factors);

  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] int resolution() const noexcept { return resolution_; }
  [[nodiscard]] bool has_tree() const noexcept { return root_ != nullptr; }

  /// Root of the annotated tree; a leaf-only placeholder when the
  /// snapshot carries factors without a tree.
  [[nodiscard]] const Node& root() const noexcept;
  [[nodiscard]] const Node* find(const std::string& path) const;

  /// Per-level distances from root to `path`, padded to the tree depth
  /// with the balance point. Nullopt for unknown paths.
  [[nodiscard]] std::optional<FairshareVector> vector_for(const std::string& path) const;

  /// Leaf (user) paths, depth-first.
  [[nodiscard]] std::vector<std::string> user_paths() const;

  /// Maximum levels below the root (cached at publish time).
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Projected factor for a leaf name or path; kNeutralFactor (the
  /// balance point) when the user is unknown — including one churned in
  /// after this generation was cut — or when the snapshot carries no
  /// factors. Never a priority-zeroing 0.0.
  [[nodiscard]] double factor_for(const std::string& user) const;

  /// Projected factors, when present: policy leaf path -> factor and leaf
  /// name -> factor.
  [[nodiscard]] const std::map<std::string, double>& path_factors() const noexcept {
    return path_factors_;
  }
  [[nodiscard]] const std::map<std::string, double>& user_factors() const noexcept {
    return user_factors_;
  }

  /// Tree portion of the wire format, {"resolution":r,"tree":{...}}: the
  /// FCS `tree` reply.
  [[nodiscard]] json::Value tree_to_json() const;

  /// Full wire format: {"generation":g,"resolution":r,"users":{...}} plus
  /// "tree" when a tree is present and `include_tree` is set.
  [[nodiscard]] json::Value to_json(bool include_tree = true) const;
  [[nodiscard]] static FairshareSnapshotPtr from_json(const json::Value& value);

 private:
  std::shared_ptr<const Node> root_;
  std::uint64_t generation_ = 0;
  int resolution_ = kDefaultResolution;
  int depth_ = 0;
  std::map<std::string, double> path_factors_;  ///< leaf path -> factor
  std::map<std::string, double> user_factors_;  ///< leaf name -> factor
};

}  // namespace aequus::core
