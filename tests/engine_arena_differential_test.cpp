// Engine differential property test (DESIGN.md §6h): the arena engine
// against both frozen oracles.
//
// The engine's contract is *bit-identity*. For any mutation sequence its
// published snapshot equals, double for double, the pre-engine
// whole-tree recursion (testing::reference_annotate) over the equivalent
// policy and decayed usage, and the pre-arena map engine
// (testing::ReferenceMapEngine) driven by the same mutations. Each trial
// derives a random op stream from the trial seed (usage deltas incl.
// unlisted and non-canonical paths, decay epoch advances and rollovers
// that expire whole leaves, policy swaps, decay/config swaps, wholesale
// set_usage replacements) and asserts after every publish that
//
//   - the recursion, compute_once(), the map engine and the arena engine
//     agree across the whole tree,
//   - the two engines' generation counters agree (same change detection),
//   - all three projections agree bitwise, factor maps included.
//
// Failures print the trial seed; AEQUUS_PROPERTY_SEED=<seed> replays the
// exact stream.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/decay.hpp"
#include "core/engine.hpp"
#include "core/projection.hpp"
#include "core/snapshot.hpp"
#include "testing/property.hpp"
#include "testing/reference_engine.hpp"

namespace aequus {
namespace {

using core::FairshareSnapshot;
using core::FairshareSnapshotPtr;

void require_nodes_equal(const FairshareSnapshot::Node& expected,
                         const FairshareSnapshot::Node& actual, const std::string& where) {
  testing::require(expected.name == actual.name, "node name mismatch at " + where);
  testing::require(expected.policy_share == actual.policy_share &&
                       expected.usage_share == actual.usage_share &&
                       expected.distance == actual.distance,
                   "node values diverge at " + where);
  testing::require(expected.children.size() == actual.children.size(),
                   "child count mismatch at " + where);
  for (std::size_t i = 0; i < expected.children.size(); ++i) {
    require_nodes_equal(*expected.children[i], *actual.children[i],
                        where + "/" + expected.children[i]->name);
  }
}

void require_projections_equal(const FairshareSnapshot& expected,
                               const FairshareSnapshot& actual) {
  // Same kinds the services can configure; bits_per_level 2 forces the
  // quantizer into collisions so the disambiguation path is exercised on
  // both engines' snapshots too.
  const core::ProjectionConfig configs[] = {
      {core::ProjectionKind::kPercental, 8},
      {core::ProjectionKind::kDictionaryOrdering, 8},
      {core::ProjectionKind::kBitwiseVector, 8},
      {core::ProjectionKind::kBitwiseVector, 2},
  };
  for (const auto& config : configs) {
    const std::map<std::string, double> want = core::project(expected, config);
    const std::map<std::string, double> got = core::project(actual, config);
    testing::require(want.size() == got.size(),
                     "projection population mismatch: " + core::to_string(config.kind));
    auto it = want.begin();
    auto jt = got.begin();
    for (; it != want.end(); ++it, ++jt) {
      testing::require(it->first == jt->first && it->second == jt->second,
                       "projection factor diverges for " + it->first + " under " +
                           core::to_string(config.kind));
    }
  }
}

std::string user_path(std::size_t cluster, std::size_t user) {
  return "/grid/cluster" + std::to_string(cluster) + "/user" + std::to_string(user);
}

/// The engines' leaf values, tracked independently of either engine: the
/// last set_usage() replacement, overridden per leaf by the bins
/// apply_usage() recorded since, decayed at the current epoch. A binned
/// leaf that decays to zero is absent.
struct UsageModel {
  std::map<std::string, double> replaced;
  std::map<std::string, std::vector<std::pair<double, double>>> bins;

  [[nodiscard]] core::UsageTree decayed(const core::DecayConfig& decay, double epoch) const {
    const core::Decay decay_fn(decay);
    core::UsageTree usage;
    for (const auto& [path, value] : replaced) {
      if (bins.count(path) == 0) usage.add(path, value);
    }
    for (const auto& [path, leaf_bins] : bins) {
      usage.add(path, decay_fn.decayed_total(leaf_bins, epoch));
    }
    return usage;
  }
};

void drive_identical_streams(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  constexpr std::size_t kClusters = 5;
  constexpr std::size_t kUsers = 7;
  core::PolicyTree policy;
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      policy.set_share(user_path(c, u), 1.0 + unit(rng) * 4.0);
    }
  }
  policy.set_share("/local", 2.0);

  const core::DecayConfig initial_decay{core::DecayKind::kExponentialHalfLife, 500.0, 1000.0};
  core::DecayConfig decay = initial_decay;
  core::FairshareConfig config;
  testing::ReferenceMapEngine reference(config, initial_decay);
  core::FairshareEngine arena(config, initial_decay);
  reference.set_policy(policy);
  arena.set_policy(policy);

  UsageModel model;
  double epoch = 0.0;
  for (int step = 0; step < 220; ++step) {
    const double action = unit(rng);
    if (action < 0.5) {
      // Usage delta; sometimes an unlisted path, sometimes a sloppy
      // non-canonical spelling that the engines must canonicalize alike.
      std::string path = action < 0.04
                             ? "/outside/leaf" + std::to_string(step % 3)
                             : user_path(rng() % kClusters, rng() % kUsers);
      if (action >= 0.04 && action < 0.08) path = "//" + path.substr(1) + "/";
      const double amount = 0.5 + unit(rng) * 100.0;
      const double bin_time = epoch - unit(rng) * 800.0;
      reference.apply_usage(path, amount, bin_time);
      arena.apply_usage(path, amount, bin_time);
      model.bins[core::join_path(core::split_path(path))].emplace_back(bin_time, amount);
    } else if (action < 0.68) {
      epoch += action < 0.54 ? 5000.0 : unit(rng) * 200.0;
      reference.set_decay_epoch(epoch);
      arena.set_decay_epoch(epoch);
    } else if (action < 0.82) {
      const std::string path = user_path(rng() % kClusters, rng() % kUsers);
      if (action < 0.73 && policy.contains(path)) {
        policy.remove(path);
      } else {
        policy.set_share(path, 0.5 + unit(rng) * 5.0);
      }
      reference.set_policy(policy);
      arena.set_policy(policy);
    } else if (action < 0.88) {
      // Wholesale replacement (the FCS set_usage path), built from a
      // fresh random population that overlaps the binned one.
      core::UsageTree usage;
      const std::size_t leaves = 1 + rng() % 12;
      for (std::size_t i = 0; i < leaves; ++i) {
        usage.add(user_path(rng() % kClusters, rng() % kUsers), unit(rng) * 50.0);
      }
      reference.set_usage(usage);
      arena.set_usage(usage);
      model.replaced = usage.leaves();
      model.bins.clear();
    } else if (action < 0.95) {
      decay = action < 0.91 ? core::DecayConfig{core::DecayKind::kSlidingWindow, 0.0, 2500.0}
                            : initial_decay;
      reference.set_decay(decay);
      arena.set_decay(decay);
    } else {
      config.distance_weight_k = 0.25 + 0.5 * unit(rng);
      reference.set_config(config);
      arena.set_config(config);
    }

    if (step % 10 == 9) {
      const core::UsageTree usage = model.decayed(decay, epoch);
      const FairshareSnapshotPtr oracle = testing::reference_annotate(config, policy, usage);
      const FairshareSnapshotPtr batch = core::FairshareEngine::compute_once(config, policy, usage);
      const FairshareSnapshotPtr want = reference.snapshot();
      const FairshareSnapshotPtr got = arena.snapshot();
      testing::require(want != nullptr && got != nullptr, "null snapshot");
      testing::require(want->generation() == got->generation(),
                       "generation counters diverged");
      require_nodes_equal(oracle->root(), batch->root(), "[compute_once]");
      require_nodes_equal(oracle->root(), want->root(), "[map]");
      require_nodes_equal(oracle->root(), got->root(), "[arena]");
      testing::require(oracle->depth() == want->depth() && oracle->depth() == got->depth(),
                       "depth mismatch");
      require_projections_equal(*want, *got);
    }
  }
}

TEST(EngineArenaDifferential, BitIdenticalToBothOraclesOverRandomStreams) {
  const auto outcome = testing::run_property("arena_vs_oracles", 12, 0xa12e7a5eULL,
                                             drive_identical_streams);
  EXPECT_TRUE(outcome.passed) << outcome.summary();
}

}  // namespace
}  // namespace aequus
