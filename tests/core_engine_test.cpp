// FairshareEngine unit suite: incremental equivalence with the batch
// path, generation / publication semantics, structural sharing across
// generations, decay memoization, and input validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.hpp"
#include "core/snapshot.hpp"

namespace aequus::core {
namespace {

/// Bitwise comparison of two annotated trees (operator== on doubles; no
/// NaN by construction).
void expect_nodes_equal(const FairshareSnapshot::Node& actual, const FairshareSnapshot::Node& want,
                        const std::string& where) {
  EXPECT_EQ(actual.name, want.name) << where;
  EXPECT_EQ(actual.policy_share, want.policy_share) << where;
  EXPECT_EQ(actual.usage_share, want.usage_share) << where;
  EXPECT_EQ(actual.distance, want.distance) << where;
  ASSERT_EQ(actual.children.size(), want.children.size()) << where;
  for (std::size_t i = 0; i < want.children.size(); ++i) {
    expect_nodes_equal(*actual.children[i], *want.children[i],
                       where + "/" + want.children[i]->name);
  }
}

/// The incrementally maintained snapshot against a fresh engine's first
/// publish over the same inputs.
void expect_matches_batch(const FairshareSnapshotPtr& snapshot, const FairshareConfig& config,
                          const PolicyTree& policy, const UsageTree& usage) {
  const FairshareSnapshotPtr batch = FairshareEngine::compute_once(config, policy, usage);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->has_tree());
  expect_nodes_equal(snapshot->root(), batch->root(), "");
  EXPECT_EQ(snapshot->resolution(), batch->resolution());
  EXPECT_EQ(snapshot->depth(), batch->depth());
}

PolicyTree fig_policy() {
  PolicyTree policy;
  policy.set_share("/grid/projA/alice", 2.0);
  policy.set_share("/grid/projA/bob", 1.0);
  policy.set_share("/grid/projB/carol", 3.0);
  policy.set_share("/local", 4.0);
  return policy;
}

TEST(FairshareEngineModel, FirstSnapshotMatchesBatchCompute) {
  const PolicyTree policy = fig_policy();
  UsageTree usage;
  usage.add("/grid/projA/alice", 120.0);
  usage.add("/local", 60.0);

  FairshareEngine engine;
  engine.set_policy(policy);
  engine.set_usage(usage);
  expect_matches_batch(engine.snapshot(), engine.config(), policy, usage);
  EXPECT_EQ(engine.generation(), 1u);
}

TEST(FairshareEngineModel, UsageDeltasTrackBatchAtEveryStep) {
  const PolicyTree policy = fig_policy();
  FairshareEngine engine({}, DecayConfig{DecayKind::kNone, 1.0, 1.0});
  engine.set_policy(policy);

  UsageTree mirror;
  const std::string paths[] = {"/grid/projA/alice", "/grid/projA/bob",
                               "/grid/projB/carol", "/local", "/unlisted/user"};
  for (int step = 0; step < 25; ++step) {
    const std::string& path = paths[step % 5];
    const double amount = 7.5 + step;
    engine.apply_usage(path, amount, 0.0);
    mirror.add(path, amount);
    expect_matches_batch(engine.snapshot(), engine.config(), policy, mirror);
  }
}

TEST(FairshareEngineModel, UnchangedStateKeepsGenerationAndSnapshotPointer) {
  FairshareEngine engine;
  engine.set_policy(fig_policy());
  engine.apply_usage("/local", 10.0, 0.0);
  const FairshareSnapshotPtr first = engine.snapshot();
  // No mutation: same generation, same object.
  const FairshareSnapshotPtr second = engine.snapshot();
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(engine.generation(), 1u);
  // A delta that does not move any published value (numerically
  // impossible here, so use a no-op zero delta) also publishes nothing.
  engine.apply_usage("/local", 0.0, 0.0);
  EXPECT_EQ(engine.snapshot().get(), first.get());
  EXPECT_EQ(engine.current().get(), first.get());
}

TEST(FairshareEngineModel, StructuralSharingAcrossGenerations) {
  FairshareEngine engine;
  engine.set_policy(fig_policy());
  engine.apply_usage("/grid/projA/alice", 100.0, 0.0);
  engine.apply_usage("/grid/projB/carol", 100.0, 0.0);
  const FairshareSnapshotPtr before = engine.snapshot();

  // Touching projA renormalizes /grid's children (projB's *values* and
  // the sums above it), but projB's own child group is untouched, so its
  // published subtree must survive; carol's leaf node is shared.
  engine.apply_usage("/grid/projA/alice", 50.0, 0.0);
  const FairshareSnapshotPtr after = engine.snapshot();
  ASSERT_NE(before.get(), after.get());
  EXPECT_GT(after->generation(), before->generation());

  const auto* carol_before = before->find("/grid/projB/carol");
  const auto* carol_after = after->find("/grid/projB/carol");
  ASSERT_NE(carol_before, nullptr);
  EXPECT_EQ(carol_before, carol_after) << "untouched leaf must be the same node";
  // /local saw no change at all (its share of the root group is driven by
  // the root-level usage total, which did change) — but its subtree below
  // the changed value is shared. The previous snapshot stays intact.
  EXPECT_EQ(before->find("/grid/projA/alice")->distance,
            before->find("/grid/projA/alice")->distance);
}

TEST(FairshareEngineModel, PolicySwapDiffsOnlyChangedGroups) {
  PolicyTree policy = fig_policy();
  FairshareEngine engine;
  engine.set_policy(policy);
  UsageTree usage;
  usage.add("/grid/projA/alice", 40.0);
  usage.add("/grid/projB/carol", 10.0);
  engine.set_usage(usage);
  const FairshareSnapshotPtr before = engine.snapshot();

  // Swap a share in projA only: projB's published subtree is reused.
  policy.set_share("/grid/projA/bob", 5.0);
  engine.set_policy(policy);
  const FairshareSnapshotPtr after = engine.snapshot();
  expect_matches_batch(after, engine.config(), policy, usage);
  EXPECT_EQ(before->find("/grid/projB/carol"), after->find("/grid/projB/carol"));

  // Structural edits: add and remove users; still bit-identical to batch.
  policy.set_share("/grid/projB/dave", 2.0);
  policy.remove("/local");
  engine.set_policy(policy);
  expect_matches_batch(engine.snapshot(), engine.config(), policy, usage);

  // An identical policy swap publishes nothing.
  const FairshareSnapshotPtr stable = engine.snapshot();
  engine.set_policy(policy);
  EXPECT_EQ(engine.snapshot().get(), stable.get());
}

TEST(FairshareEngineModel, DecayEpochMemoizesIdleLeaves) {
  // kNone decay: advancing the epoch changes no leaf value, so nothing
  // is dirtied and no new generation is published.
  FairshareEngine engine({}, DecayConfig{DecayKind::kNone, 1.0, 1.0});
  engine.set_policy(fig_policy());
  engine.apply_usage("/local", 30.0, 0.0);
  const FairshareSnapshotPtr first = engine.snapshot();
  for (double now = 100.0; now <= 500.0; now += 100.0) {
    engine.set_decay_epoch(now);
    EXPECT_EQ(engine.snapshot().get(), first.get()) << now;
  }
  EXPECT_EQ(engine.decay_epoch(), 500.0);
}

TEST(FairshareEngineModel, DecayEpochAdvanceMatchesBatchOverDecayedUsage) {
  const DecayConfig decay_config{DecayKind::kExponentialHalfLife, 100.0, 0.0};
  const Decay decay(decay_config);
  const PolicyTree policy = fig_policy();
  FairshareEngine engine({}, decay_config);
  engine.set_policy(policy);
  engine.apply_usage("/grid/projA/alice", 100.0, 0.0);
  engine.apply_usage("/grid/projA/bob", 50.0, 40.0);
  engine.apply_usage("/local", 25.0, 80.0);

  for (const double now : {0.0, 130.0, 1000.0, 100000.0}) {
    engine.set_decay_epoch(now);
    UsageTree mirror;
    mirror.add("/grid/projA/alice", decay.decayed_total({{0.0, 100.0}}, now));
    mirror.add("/grid/projA/bob", decay.decayed_total({{40.0, 50.0}}, now));
    mirror.add("/local", decay.decayed_total({{80.0, 25.0}}, now));
    expect_matches_batch(engine.snapshot(), engine.config(), policy, mirror);
  }
}

TEST(FairshareEngineModel, SlidingWindowRolloverErasesExpiredLeaves) {
  // Once every bin ages out of the window the leaf's decayed value is 0,
  // which must behave exactly like "user absent" in the batch path.
  const DecayConfig decay_config{DecayKind::kSlidingWindow, 0.0, 50.0};
  const PolicyTree policy = fig_policy();
  FairshareEngine engine({}, decay_config);
  engine.set_policy(policy);
  engine.apply_usage("/grid/projA/alice", 10.0, 0.0);
  engine.apply_usage("/local", 10.0, 100.0);

  engine.set_decay_epoch(200.0);  // alice's bin (age 200) is outside the window
  UsageTree mirror;
  mirror.add("/local", Decay(decay_config).decayed_total({{100.0, 10.0}}, 200.0));
  expect_matches_batch(engine.snapshot(), engine.config(), policy, mirror);
}

TEST(FairshareEngineModel, SetDecaySwapsFunctionAndRevalues) {
  const PolicyTree policy = fig_policy();
  FairshareEngine engine({}, DecayConfig{DecayKind::kNone, 1.0, 1.0});
  engine.set_policy(policy);
  engine.apply_usage("/grid/projA/alice", 100.0, 0.0);
  engine.set_decay_epoch(100.0);

  const DecayConfig half{DecayKind::kExponentialHalfLife, 100.0, 0.0};
  engine.set_decay(half);
  UsageTree mirror;
  mirror.add("/grid/projA/alice", Decay(half).decayed_total({{0.0, 100.0}}, 100.0));
  expect_matches_batch(engine.snapshot(), engine.config(), policy, mirror);
}

TEST(FairshareEngineModel, SetConfigReannotatesWholeTree) {
  const PolicyTree policy = fig_policy();
  UsageTree usage;
  usage.add("/grid/projA/alice", 100.0);
  FairshareEngine engine;
  engine.set_policy(policy);
  engine.set_usage(usage);
  (void)engine.snapshot();

  const FairshareConfig pure_relative{1.0, kDefaultResolution};
  engine.set_config(pure_relative);
  expect_matches_batch(engine.snapshot(), pure_relative, policy, usage);
  EXPECT_THROW(engine.set_config(FairshareConfig{-0.1, kDefaultResolution}),
               std::invalid_argument);
}

TEST(FairshareEngineModel, ApplyUsageValidation) {
  FairshareEngine engine;
  engine.set_policy(fig_policy());
  EXPECT_THROW(engine.apply_usage("/local", -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.apply_usage("/local", std::numeric_limits<double>::quiet_NaN(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(engine.apply_usage("/local", std::numeric_limits<double>::infinity(), 0.0),
               std::invalid_argument);
}

TEST(FairshareEngineModel, SetUsageBitwiseDiffIsQuiet) {
  UsageTree usage;
  usage.add("/grid/projA/alice", 12.5);
  usage.add("/local", 1.25);
  FairshareEngine engine;
  engine.set_policy(fig_policy());
  engine.set_usage(usage);
  const FairshareSnapshotPtr first = engine.snapshot();
  // Re-feeding the identical tree dirties nothing.
  engine.set_usage(usage);
  EXPECT_EQ(engine.snapshot().get(), first.get());
  // Removing a leaf republishes and matches batch.
  UsageTree smaller;
  smaller.add("/local", 1.25);
  engine.set_usage(smaller);
  expect_matches_batch(engine.snapshot(), engine.config(), fig_policy(), smaller);
}

TEST(FairshareEngineModel, CurrentIsNullBeforeFirstPublish) {
  FairshareEngine engine;
  EXPECT_EQ(engine.current(), nullptr);
  EXPECT_EQ(engine.generation(), 0u);
}

TEST(FairshareSnapshotModel, FactorsLayerAndWireRoundTrip) {
  FairshareEngine engine;
  engine.set_policy(fig_policy());
  engine.apply_usage("/grid/projA/alice", 10.0, 0.0);
  const FairshareSnapshotPtr base = engine.snapshot();

  const FairshareSnapshotPtr projected = FairshareSnapshot::with_factors(
      base, {{"/grid/projA/alice", 0.25}}, {{"alice", 0.25}, {"bob", 0.75}});
  EXPECT_EQ(projected->generation(), base->generation());
  EXPECT_EQ(&projected->root(), &base->root());  // tree is shared, not copied
  EXPECT_DOUBLE_EQ(projected->factor_for("alice"), 0.25);
  EXPECT_DOUBLE_EQ(projected->factor_for("/grid/projA/alice"), 0.25);
  EXPECT_DOUBLE_EQ(projected->factor_for("ghost"), 0.5);  // balance fallback

  const FairshareSnapshotPtr decoded =
      FairshareSnapshot::from_json(projected->to_json(/*include_tree=*/true));
  EXPECT_EQ(decoded->generation(), projected->generation());
  EXPECT_DOUBLE_EQ(decoded->factor_for("bob"), 0.75);
  EXPECT_EQ(decoded->tree_to_json().dump(), projected->tree_to_json().dump());

  // Factors-only wire form (the client path): no tree, factors intact.
  const FairshareSnapshotPtr slim =
      FairshareSnapshot::from_json(projected->to_json(/*include_tree=*/false));
  EXPECT_FALSE(slim->has_tree());
  EXPECT_DOUBLE_EQ(slim->factor_for("alice"), 0.25);
}

}  // namespace
}  // namespace aequus::core
