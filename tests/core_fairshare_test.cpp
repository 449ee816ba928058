#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.hpp"
#include "core/fairshare.hpp"

namespace aequus::core {
namespace {

TEST(NodeDistance, BalanceGivesZero) {
  const FairshareAlgorithm algorithm;
  EXPECT_DOUBLE_EQ(algorithm.node_distance(0.3, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(algorithm.node_distance(1.0, 1.0), 0.0);
}

TEST(NodeDistance, PaperMaximumCheck) {
  // §IV-A-5: with k = 0.5 the maximum priority for a user with share 0.12
  // is 0.5 * (1 + 0.12) = 0.56, reached when the user has no usage.
  const FairshareAlgorithm algorithm;
  EXPECT_NEAR(algorithm.node_distance(0.12, 0.0), 0.56, 1e-12);
}

TEST(NodeDistance, UnderUsePositiveOverUseNegative) {
  const FairshareAlgorithm algorithm;
  EXPECT_GT(algorithm.node_distance(0.5, 0.2), 0.0);
  EXPECT_LT(algorithm.node_distance(0.5, 0.9), 0.0);
}

TEST(NodeDistance, MonotoneInUsage) {
  const FairshareAlgorithm algorithm;
  double previous = 2.0;
  for (double usage = 0.0; usage <= 1.0; usage += 0.05) {
    const double d = algorithm.node_distance(0.4, usage);
    EXPECT_LT(d, previous);
    previous = d;
  }
}

TEST(NodeDistance, WeightShiftsBetweenComponents) {
  // k = 1: purely relative; k = 0: purely absolute.
  const FairshareAlgorithm relative(FairshareConfig{1.0, kDefaultResolution});
  const FairshareAlgorithm absolute(FairshareConfig{0.0, kDefaultResolution});
  EXPECT_DOUBLE_EQ(relative.node_distance(0.12, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(absolute.node_distance(0.12, 0.0), 0.12);
}

TEST(NodeDistance, ZeroPolicyShareWithUsageIsMaximalOverUse) {
  const FairshareAlgorithm algorithm;
  EXPECT_LT(algorithm.node_distance(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(algorithm.node_distance(0.0, 0.0), 0.0);
}

TEST(NodeDistance, CorruptSharesClampInsteadOfPropagatingNaN) {
  // Regression: a policy_share of 0 combined with usage used to divide
  // 0/0 on the relative term; NaN then leaked into the tree and the json
  // serializer rejected the FCS reply. Corrupt inputs now canonicalize to
  // the [0, 1] domain before the distance formula runs.
  const FairshareAlgorithm algorithm;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(std::isnan(algorithm.node_distance(0.0, 0.5)));
  EXPECT_FALSE(std::isnan(algorithm.node_distance(nan, 0.5)));
  EXPECT_FALSE(std::isnan(algorithm.node_distance(0.5, nan)));
  EXPECT_FALSE(std::isnan(algorithm.node_distance(nan, nan)));
  EXPECT_FALSE(std::isnan(algorithm.node_distance(inf, -inf)));
  // NaN and negative shares behave exactly like zero...
  EXPECT_DOUBLE_EQ(algorithm.node_distance(nan, 0.5),
                   algorithm.node_distance(0.0, 0.5));
  EXPECT_DOUBLE_EQ(algorithm.node_distance(-0.3, 0.5),
                   algorithm.node_distance(0.0, 0.5));
  // ...over-unity shares like one, and valid shares pass through bitwise.
  EXPECT_DOUBLE_EQ(algorithm.node_distance(3.0, 0.5),
                   algorithm.node_distance(1.0, 0.5));
  EXPECT_DOUBLE_EQ(algorithm.node_distance(0.12, 0.0), 0.56);
}

TEST(FairshareAlgorithmConfig, Validation) {
  EXPECT_THROW(FairshareAlgorithm(FairshareConfig{-0.1, 10000}), std::invalid_argument);
  EXPECT_THROW(FairshareAlgorithm(FairshareConfig{1.1, 10000}), std::invalid_argument);
  EXPECT_THROW(FairshareAlgorithm(FairshareConfig{0.5, 1}), std::invalid_argument);
}

TEST(FairshareVectorModel, EncodingAndBalancePoint) {
  // Balance (raw 0) encodes to the center of [0, 9999].
  EXPECT_EQ(FairshareVector::balance_point(10000), 5000);
  EXPECT_EQ(FairshareVector::encode(-1.0, 10000), 0);
  EXPECT_EQ(FairshareVector::encode(1.0, 10000), 9999);
  EXPECT_EQ(FairshareVector::encode(2.0, 10000), 9999);  // clamped
}

TEST(FairshareVectorModel, PaddingUsesBalancePoint) {
  const FairshareVector v({0.5}, 10000);
  const FairshareVector padded = v.padded_to(3);
  EXPECT_EQ(padded.depth(), 3u);
  const auto encoded = padded.encoded();
  EXPECT_EQ(encoded[1], 5000);
  EXPECT_EQ(encoded[2], 5000);
}

TEST(FairshareVectorModel, LexicographicCompare) {
  const FairshareVector high({0.8, -0.5});
  const FairshareVector low({0.2, 0.9});
  EXPECT_EQ(high.compare(low), std::strong_ordering::greater);
  EXPECT_EQ(low.compare(high), std::strong_ordering::less);
  EXPECT_EQ(high.compare(high), std::strong_ordering::equal);
}

TEST(FairshareVectorModel, ShorterVectorComparesAsBalancePadded) {
  const FairshareVector shallow({0.5});
  const FairshareVector deep_negative({0.5, -0.3});
  const FairshareVector deep_positive({0.5, 0.3});
  EXPECT_EQ(shallow.compare(deep_negative), std::strong_ordering::greater);
  EXPECT_EQ(shallow.compare(deep_positive), std::strong_ordering::less);
}

TEST(FairshareVectorModel, ToStringDotted) {
  const FairshareVector v({-1.0, 0.0, 1.0});
  EXPECT_EQ(v.to_string(), "0000.5000.9999");
}

TEST(AnnotatedTreeModel, ComputeAnnotatesShares) {
  PolicyTree policy;
  policy.set_share("/g/u1", 1.0);
  policy.set_share("/g/u2", 1.0);
  policy.set_share("/local", 2.0);

  UsageTree usage;
  usage.add("/g/u1", 30.0);
  usage.add("/g/u2", 10.0);
  usage.add("/local", 60.0);

  const FairshareSnapshotPtr tree = FairshareEngine::compute_once({}, policy, usage);

  const auto* g = tree->find("/g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->policy_share, 1.0 / 3.0);  // weight 1 vs /local's 2
  EXPECT_DOUBLE_EQ(tree->find("/local")->policy_share, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(g->usage_share, 0.4);
  EXPECT_DOUBLE_EQ(tree->find("/g/u1")->usage_share, 0.75);
  EXPECT_DOUBLE_EQ(tree->find("/g/u1")->policy_share, 0.5);
  EXPECT_EQ(tree->depth(), 2);
}

TEST(AnnotatedTreeModel, VectorExtractionAndPadding) {
  PolicyTree policy;
  policy.set_share("/g/u1", 1.0);
  policy.set_share("/g/u2", 1.0);
  policy.set_share("/LQ", 1.0);  // shallow path, like the paper's example

  UsageTree usage;
  usage.add("/g/u1", 10.0);

  const FairshareSnapshotPtr tree = FairshareEngine::compute_once({}, policy, usage);

  const auto deep = tree->vector_for("/g/u1");
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->depth(), 2u);

  const auto shallow = tree->vector_for("/LQ");
  ASSERT_TRUE(shallow.has_value());
  EXPECT_EQ(shallow->depth(), 2u);  // padded to tree depth
  EXPECT_EQ(shallow->encoded()[1], FairshareVector::balance_point());

  EXPECT_FALSE(tree->vector_for("/nope").has_value());
}

TEST(AnnotatedTreeModel, IdleUserOutranksActiveUser) {
  PolicyTree policy;
  policy.set_share("/u1", 1.0);
  policy.set_share("/u2", 1.0);
  UsageTree usage;
  usage.add("/u1", 100.0);

  const FairshareSnapshotPtr tree = FairshareEngine::compute_once({}, policy, usage);
  const auto v1 = tree->vector_for("/u1");
  const auto v2 = tree->vector_for("/u2");
  EXPECT_EQ(v2->compare(*v1), std::strong_ordering::greater);
}

TEST(AnnotatedTreeModel, SubgroupIsolationOfVectorElements) {
  // Table I: the per-level vector element is affected only by its own
  // sibling group. Changing usage inside /b must not move /a/u1's element.
  PolicyTree policy;
  policy.set_share("/a/u1", 1.0);
  policy.set_share("/a/u2", 1.0);
  policy.set_share("/b/u3", 1.0);
  policy.set_share("/b/u4", 1.0);

  UsageTree usage1;
  usage1.add("/a/u1", 10.0);
  usage1.add("/a/u2", 30.0);
  usage1.add("/b/u3", 20.0);
  usage1.add("/b/u4", 20.0);

  UsageTree usage2 = usage1;
  usage2.add("/b/u3", 500.0);  // perturb the other subgroup

  const FairshareSnapshotPtr t1 = FairshareEngine::compute_once({}, policy, usage1);
  const FairshareSnapshotPtr t2 = FairshareEngine::compute_once({}, policy, usage2);

  // Second (leaf) element of /a users: untouched by /b's internal change.
  EXPECT_DOUBLE_EQ(t1->find("/a/u1")->distance, t2->find("/a/u1")->distance);
  EXPECT_DOUBLE_EQ(t1->find("/a/u2")->distance, t2->find("/a/u2")->distance);
  // The top-level element of /a *does* change (the a-vs-b balance shifted).
  EXPECT_NE(t1->find("/a")->distance, t2->find("/a")->distance);
}

/// Parameterized sweep over the distance weight k: invariants that must
/// hold for every configuration.
class DistanceWeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(DistanceWeightSweep, BalanceIsAlwaysZero) {
  const FairshareAlgorithm algorithm(FairshareConfig{GetParam(), kDefaultResolution});
  for (double share : {0.1, 0.33, 0.9}) {
    EXPECT_NEAR(algorithm.node_distance(share, share), 0.0, 1e-12) << "share " << share;
  }
}

TEST_P(DistanceWeightSweep, MaximumIsKPlusOneMinusKTimesShare) {
  const double k = GetParam();
  const FairshareAlgorithm algorithm(FairshareConfig{k, kDefaultResolution});
  for (double share : {0.12, 0.5, 1.0}) {
    EXPECT_NEAR(algorithm.node_distance(share, 0.0), k + (1.0 - k) * share, 1e-12);
  }
}

TEST_P(DistanceWeightSweep, NonIncreasingInUsage) {
  // Strictly decreasing until the relative component saturates at -1
  // (pure-relative configs clamp once usage >= 2x the policy share).
  const FairshareAlgorithm algorithm(FairshareConfig{GetParam(), kDefaultResolution});
  double previous = 2.0;
  for (double usage = 0.0; usage <= 1.0001; usage += 0.1) {
    const double d = algorithm.node_distance(0.4, usage);
    EXPECT_LE(d, previous);
    if (previous > -1.0 + 1e-12 && previous <= 1.0) {
      EXPECT_LT(d, previous);
    }
    EXPECT_GE(d, -1.0 - 1e-12);
    previous = d;
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, DistanceWeightSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

/// Parameterized sweep over vector resolutions.
class ResolutionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ResolutionSweep, EncodingBoundsAndBalance) {
  const int resolution = GetParam();
  EXPECT_EQ(FairshareVector::encode(-1.0, resolution), 0);
  EXPECT_EQ(FairshareVector::encode(1.0, resolution), resolution - 1);
  const int balance = FairshareVector::balance_point(resolution);
  EXPECT_GE(balance, (resolution - 1) / 2);
  EXPECT_LE(balance, resolution / 2);
}

TEST_P(ResolutionSweep, EncodingIsMonotone) {
  const int resolution = GetParam();
  int previous = -1;
  for (double v = -1.0; v <= 1.0001; v += 0.05) {
    const int e = FairshareVector::encode(v, resolution);
    EXPECT_GE(e, previous);
    previous = e;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, ResolutionSweep,
                         ::testing::Values(2, 10, 100, 10000, 1000000));

TEST(AnnotatedTreeModel, UserPathsListsLeaves) {
  PolicyTree policy;
  policy.set_share("/g/u1", 1.0);
  policy.set_share("/solo", 1.0);
  const FairshareSnapshotPtr tree = FairshareEngine::compute_once({}, policy, UsageTree());
  EXPECT_EQ(tree->user_paths(), (std::vector<std::string>{"/g/u1", "/solo"}));
}

}  // namespace
}  // namespace aequus::core
