// Incremental fairshare engine: dirty-path recompute over SoA arenas,
// behind immutable snapshots.
//
// A batch recompute rebuilds the whole annotated tree from scratch on
// every usage delta — the dominant cost of the FCS
// pre-calculation loop once sweeps run in parallel. The engine keeps the
// annotated tree *stateful* and recomputes only what a mutation can have
// changed:
//
//   - a usage delta for one leaf marks exactly the root-to-leaf path
//     dirty: the subtree sums along the path are stale, and every sibling
//     group on the path renormalizes (a group's usage_total changed, so
//     all its members' usage shares move) — but clean siblings' subtrees
//     are never re-entered;
//   - a policy swap diffs the new tree against the working state and
//     dirties only sibling groups whose membership, order, or raw shares
//     changed;
//   - decayed usage is memoized per leaf keyed by the decay epoch:
//     advancing the epoch re-values only binned leaves, and leaves whose
//     decayed value is bit-identical (idle users, kNone/sliding-window
//     plateaus) stay clean, so an idle subtree costs zero.
//
// Since the arena rework (DESIGN.md §6h) the working state lives in
// cache-conscious structure-of-arrays arenas keyed by dense interned ids
// (core::IdTable, core::NodeArena, core::LeafStore): a delta resolves its
// leaf with one id lookup, marks the dirty path by walking parent links,
// and the renormalize/subtree-sum hot loops stream contiguous double
// arrays. Strings appear only at the API boundary — wire-format user
// paths coming in, published FairshareSnapshot nodes going out.
//
// Reads never touch the working state: snapshot() publishes an immutable,
// generation-stamped FairshareSnapshot with copy-on-publish structural
// sharing (unchanged subtrees are the *same* nodes as the previous
// generation), and current() hands the latest one out as a shared_ptr
// copy under a handoff mutex whose critical section is two refcount ops.
// (std::atomic<std::shared_ptr> would make the handoff lock-free, but
// GCC 12's _Sp_atomic spinlock trips ThreadSanitizer; readers grab one
// snapshot per scheduling pass, so the mutex is never contended in
// practice.) The engine is single-writer / many-reader.
//
// Bit-identity contract: for any sequence of mutations, the published
// tree is bit-identical to the pre-engine whole-tree recursion (frozen as
// testing::reference_annotate) over the equivalent policy and (decayed)
// usage trees — the engine reproduces the recursion's exact
// floating-point summation orders (the leaf order index in LeafStore
// preserves the old full-map scan order).
//
// The engine is also the default "aequus" core::FairnessBackend; the
// alternative fairness policies in backends.hpp subclass it, reusing the
// arenas and dirty tracking and overriding only annotate_group() (plus
// projection/time hooks where their math needs it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/backend.hpp"
#include "core/decay.hpp"
#include "core/fairshare.hpp"
#include "core/id_table.hpp"
#include "core/policy.hpp"
#include "core/snapshot.hpp"
#include "core/usage.hpp"

namespace aequus::core {

class FairshareEngine : public FairnessBackend {
 public:
  explicit FairshareEngine(FairshareConfig config = {}, DecayConfig decay = {});

  /// Registry key; derived backends reuse the engine's storage and
  /// override this along with annotate_group().
  [[nodiscard]] std::string_view name() const noexcept override { return "aequus"; }

  /// Swap the policy tree; structurally diffed against the working state
  /// so unchanged sibling groups keep their annotations.
  void set_policy(const PolicyTree& policy) override;

  /// Add `amount` (> 0) core-seconds for the user leaf at `user_path`,
  /// recorded in the time bin at `bin_time`. The leaf's effective value
  /// is the decay-weighted sum of its bins at the current epoch.
  /// Rejects negative or non-finite amounts; zero is a no-op.
  void apply_usage(const std::string& user_path, double amount, double bin_time) override;

  /// Replace the usage state wholesale with externally decayed per-leaf
  /// values (the FCS path: the UMS has already applied decay). Leaves are
  /// diffed bitwise, so a refresh that changes nothing dirties nothing.
  /// Drops any binned state previously built via apply_usage().
  void set_usage(const UsageTree& decayed) override;

  /// Re-evaluate every binned leaf at decay epoch `now`. Leaves whose
  /// decayed value is bit-identical stay clean.
  void set_decay_epoch(double now) override;
  [[nodiscard]] double decay_epoch() const noexcept { return epoch_; }

  /// Swap the decay function; re-values all binned leaves at the current
  /// epoch.
  void set_decay(DecayConfig decay) override;

  /// Swap the distance algorithm (k, resolution); the full tree is
  /// re-annotated on the next publish. Throws like FairshareAlgorithm on
  /// invalid configs.
  void set_config(FairshareConfig config) override;
  [[nodiscard]] const FairshareConfig& config() const noexcept {
    return algorithm_.config();
  }

  /// Recompute everything marked dirty, publish a new generation if any
  /// published value changed, and return the latest snapshot. Writer-side
  /// only (not thread-safe against other mutators).
  FairshareSnapshotPtr snapshot();

  /// FairnessBackend spelling of snapshot().
  [[nodiscard]] FairshareSnapshotPtr publish() override { return snapshot(); }

  /// Latest published snapshot; safe from any thread concurrently with
  /// the single writer. Null before the first snapshot() call.
  [[nodiscard]] FairshareSnapshotPtr current() const override {
    const std::lock_guard<std::mutex> guard(publish_mutex_);
    return published_;
  }

  /// Generation of the latest published snapshot (0 before the first).
  [[nodiscard]] std::uint64_t generation() const noexcept override { return generation_; }

  /// Active usage leaves in the working state (present, value retained).
  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaves_.active_count(); }

  /// One-shot annotation of `policy` under `usage`: the first snapshot of
  /// a throwaway engine.
  [[nodiscard]] static FairshareSnapshotPtr compute_once(const FairshareConfig& config,
                                                         const PolicyTree& policy,
                                                         const UsageTree& usage);

 protected:
  /// Re-annotate one dirty sibling group: derive every child's published
  /// (policy_share, usage_share, distance) triple from the group-local
  /// state — `share_total` is the group's positive raw-share sum and
  /// `usage_total` its refreshed subtree-usage sum — and set
  /// kValueChanged on any child whose triple moved. This is the policy
  /// seam: the default body is the Aequus annotation (sibling-normalized
  /// shares, FairshareAlgorithm::node_distance) and alternative backends
  /// (backends.hpp) override only this.
  virtual void annotate_group(NodeId node, double share_total, double usage_total);

  FairshareAlgorithm algorithm_;
  Decay decay_;
  double epoch_ = 0.0;
  NodeArena nodes_;
  LeafStore leaves_;
  /// Bumped whenever a policy swap changes tree *structure*; invalidates
  /// the leaves' memoized attach nodes.
  std::uint64_t structure_epoch_ = 1;

 private:
  /// Diff one policy sibling group; returns true when anything below
  /// `node` (inclusive) was dirtied.
  bool sync_policy(NodeId node, const PolicyTree::Node& policy_node);
  /// Leaf slot for a wire-format user path (canonicalized, interned).
  LeafId leaf_for(const std::string& user_path);
  /// Deepest policy node prefixing the leaf's path (memoized per policy
  /// structure epoch).
  NodeId attach_node(LeafId leaf);
  /// Mark the root-to-leaf path of `leaf` dirty.
  void mark_leaf_dirty(LeafId leaf);
  /// Set a leaf's effective decayed value, dirtying its path on change.
  void set_leaf_value(LeafId leaf, double value);
  /// Renormalize dirty sibling groups and refresh stale sums below `node`.
  void refresh(NodeId node);
  /// Rebuild the published node for `node` where values changed, sharing
  /// every untouched child. Returns true when the pointer changed.
  bool publish_node(NodeId node);

  bool structure_changed_ = false;  ///< set by sync_policy during one swap
  int depth_ = 0;
  std::uint64_t generation_ = 0;
  bool force_republish_ = true;  ///< config change or first publish
  mutable std::mutex publish_mutex_;  ///< guards only the published_ handoff
  FairshareSnapshotPtr published_;
};

}  // namespace aequus::core
