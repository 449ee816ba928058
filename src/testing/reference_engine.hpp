// Frozen oracles for the fairshare engine.
//
// reference_annotate() is the pre-engine batch annotation: one recursive
// pass over the policy tree that sums usage per sibling group. It fixes
// the floating-point summation orders every engine must reproduce.
//
// ReferenceMapEngine is the FairshareEngine as it stood before the
// arena/SoA rework (DESIGN.md §6h): a pointer-linked working tree plus
// string-keyed std::maps for leaf values and bins, kept verbatim (modulo
// the rename).
//
// The arena engine must stay bit-identical to both for any mutation
// sequence: the differential property test
// (tests/engine_arena_differential_test.cpp) drives all three over one
// seeded stream, and bench_incremental times the engine against each.
// Do not modernize or optimize these files — their value is that they do
// not change.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/decay.hpp"
#include "core/fairshare.hpp"
#include "core/policy.hpp"
#include "core/snapshot.hpp"
#include "core/usage.hpp"

namespace aequus::testing {

/// Annotate `policy` with `usage` by the frozen whole-tree recursion. The
/// snapshot is stamped generation 1, like a fresh engine's first publish.
[[nodiscard]] core::FairshareSnapshotPtr reference_annotate(const core::FairshareConfig& config,
                                                            const core::PolicyTree& policy,
                                                            const core::UsageTree& usage);

class ReferenceMapEngine {
 public:
  explicit ReferenceMapEngine(core::FairshareConfig config = {},
                              core::DecayConfig decay = {});

  void set_policy(const core::PolicyTree& policy);
  void apply_usage(const std::string& user_path, double amount, double bin_time);
  void set_usage(const core::UsageTree& decayed);
  void set_decay_epoch(double now);
  [[nodiscard]] double decay_epoch() const noexcept { return epoch_; }
  void set_decay(core::DecayConfig decay);
  void set_config(core::FairshareConfig config);
  [[nodiscard]] const core::FairshareConfig& config() const noexcept {
    return algorithm_.config();
  }

  core::FairshareSnapshotPtr snapshot();

  [[nodiscard]] core::FairshareSnapshotPtr current() const {
    const std::lock_guard<std::mutex> guard(publish_mutex_);
    return published_;
  }

  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

 private:
  struct Node {
    std::string name;
    std::string path;
    double raw_share = 0.0;
    double policy_share = 0.0;
    double usage_share = 0.0;
    double distance = 0.0;
    double subtree_usage = 0.0;
    bool sum_stale = true;
    bool children_dirty = true;
    bool needs_visit = false;
    bool value_changed = true;
    std::vector<std::unique_ptr<Node>> children;
    std::shared_ptr<const core::FairshareSnapshot::Node> published;

    [[nodiscard]] Node* find_child(const std::string& child_name);
  };

  struct BinnedLeaf {
    std::vector<std::pair<double, double>> bins;
    double cached_epoch = 0.0;
    double cached_value = 0.0;
    bool cached = false;
  };

  bool sync_policy(Node& node, const core::PolicyTree::Node& policy_node);
  void mark_leaf_dirty(const std::string& leaf_path);
  void set_leaf_value(const std::string& leaf_path, double value);
  void refresh(Node& node);
  [[nodiscard]] double subtree_sum(const std::string& path) const;
  bool publish_node(Node& node);

  core::FairshareAlgorithm algorithm_;
  core::Decay decay_;
  double epoch_ = 0.0;
  Node root_;
  int depth_ = 0;
  std::map<std::string, double> leaf_values_;
  std::map<std::string, BinnedLeaf> leaf_bins_;
  std::uint64_t generation_ = 0;
  bool force_republish_ = true;
  mutable std::mutex publish_mutex_;
  core::FairshareSnapshotPtr published_;
};

}  // namespace aequus::testing
