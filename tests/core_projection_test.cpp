#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/engine.hpp"
#include "core/projection.hpp"

namespace aequus::core {
namespace {

FairshareSnapshot make_tree(const std::map<std::string, double>& shares,
                            const std::map<std::string, double>& usage_amounts,
                            double k = 0.5) {
  PolicyTree policy;
  for (const auto& [path, share] : shares) policy.set_share(path, share);
  UsageTree usage;
  for (const auto& [path, amount] : usage_amounts) usage.add(path, amount);
  return *FairshareEngine::compute_once(FairshareConfig{k, kDefaultResolution}, policy,
                                        usage);
}

TEST(ProjectionNames, ToString) {
  EXPECT_EQ(to_string(ProjectionKind::kDictionaryOrdering), "dictionary");
  EXPECT_EQ(to_string(ProjectionKind::kBitwiseVector), "bitwise");
  EXPECT_EQ(to_string(ProjectionKind::kPercental), "percental");
}

TEST(DictionaryProjection, PaperExampleSpacing) {
  // "three vectors would result in the numerical values 0.75, 0.50, and
  // 0.25, according to sorting order."
  const FairshareSnapshot tree = make_tree({{"/a", 1.0}, {"/b", 1.0}, {"/c", 1.0}},
                                           {{"/a", 10.0}, {"/b", 50.0}, {"/c", 100.0}});
  const auto values = project(tree, {ProjectionKind::kDictionaryOrdering, 8});
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values.at("/a"), 0.75);  // least usage -> best rank
  EXPECT_DOUBLE_EQ(values.at("/b"), 0.50);
  EXPECT_DOUBLE_EQ(values.at("/c"), 0.25);
}

TEST(DictionaryProjection, OrderMatchesVectorComparison) {
  const FairshareSnapshot tree =
      make_tree({{"/g/u1", 1.0}, {"/g/u2", 1.0}, {"/h/u3", 2.0}, {"/h/u4", 1.0}},
                {{"/g/u1", 40.0}, {"/g/u2", 10.0}, {"/h/u3", 30.0}, {"/h/u4", 5.0}});
  const auto values = project(tree, {ProjectionKind::kDictionaryOrdering, 8});
  for (const auto& a : tree.user_paths()) {
    for (const auto& b : tree.user_paths()) {
      if (tree.vector_for(a)->compare(*tree.vector_for(b)) == std::strong_ordering::greater) {
        EXPECT_GT(values.at(a), values.at(b)) << a << " vs " << b;
      }
    }
  }
}

TEST(BitwiseProjection, PreservesOrderWithinDepth) {
  const FairshareSnapshot tree = make_tree({{"/a", 1.0}, {"/b", 1.0}, {"/c", 1.0}},
                                           {{"/a", 10.0}, {"/b", 50.0}, {"/c", 100.0}});
  const auto values = project(tree, {ProjectionKind::kBitwiseVector, 8});
  EXPECT_GT(values.at("/a"), values.at("/b"));
  EXPECT_GT(values.at("/b"), values.at("/c"));
  for (const auto& [path, v] : values) {
    (void)path;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(BitwiseProjection, FiniteDepthTruncatesToOneQuantum) {
  // With 26 bits per level only two levels fit into a double's mantissa;
  // a difference at level 3 is truncated out of the *code* (Table I: no
  // infinite depth). The code collision no longer merges the factors —
  // disambiguation separates them — but both must stay inside the code's
  // own quantum, so the coarse (code-level) ordering is unchanged.
  PolicyTree policy;
  policy.set_share("/a/b/c1", 1.0);
  policy.set_share("/a/b/c2", 1.0);
  UsageTree usage;
  usage.add("/a/b/c1", 100.0);
  const FairshareSnapshot tree = *FairshareEngine::compute_once({}, policy, usage);
  const auto values = project(tree, {ProjectionKind::kBitwiseVector, 26});
  const double quantum = 1.0 / (std::exp2(26.0 * 2) - 1.0);
  EXPECT_NE(values.at("/a/b/c1"), values.at("/a/b/c2"));
  EXPECT_LT(std::abs(values.at("/a/b/c1") - values.at("/a/b/c2")), quantum);
  // c2 idle, c1 used: c2's vector ranks higher, so must its factor.
  EXPECT_GT(values.at("/a/b/c2"), values.at("/a/b/c1"));
  // Dictionary ordering keeps the distinction at full strength.
  const auto dict = project(tree, {ProjectionKind::kDictionaryOrdering, 8});
  EXPECT_NE(dict.at("/a/b/c1"), dict.at("/a/b/c2"));
}

TEST(BitwiseProjection, FinitePrecisionQuantizesToOneQuantum) {
  // 1-bit elements put two mildly different same-side usages into the
  // same bucket (Table I: no infinite precision). Disambiguation keeps
  // their factors distinct and correctly ordered, but within the shared
  // bucket's quantum — far closer together than to any other bucket.
  const FairshareSnapshot tree =
      make_tree({{"/a", 1.0}, {"/b", 1.0}, {"/c", 1.0}},
                {{"/a", 10.0}, {"/b", 12.0}, {"/c", 1000.0}});
  const auto values = project(tree, {ProjectionKind::kBitwiseVector, 1});
  const double quantum = 1.0;  // 1 bit, 1 level: scale - 1 = 1
  EXPECT_NE(values.at("/a"), values.at("/b"));
  EXPECT_LT(std::abs(values.at("/a") - values.at("/b")), quantum);
  EXPECT_GT(values.at("/a"), values.at("/b"));  // less usage ranks higher
}

TEST(BitwiseProjection, CollidingCodesDisambiguated) {
  // Regression for the id-collision edge case: coarse bits_per_level maps
  // distinct sibling vectors to the same merged code, which used to merge
  // their factors silently. Collided factors must now stay distinct,
  // ordered like their vectors, inside [0, 1], and inside their code's
  // quantum; bit-identical vectors must still share one factor.
  const FairshareSnapshot tree = make_tree(
      {{"/a", 1.0}, {"/b", 1.0}, {"/c", 1.0}, {"/d", 1.0}, {"/e", 1.0}},
      {{"/a", 10.0}, {"/b", 12.0}, {"/c", 14.0}, {"/d", 1000.0}, {"/e", 1000.0}});
  const auto values = project(tree, {ProjectionKind::kBitwiseVector, 2});
  // a, b, c quantize alike (mild usage, same side of balance) yet carry
  // distinct vectors: all three factors distinct and vector-ordered.
  EXPECT_NE(values.at("/a"), values.at("/b"));
  EXPECT_NE(values.at("/b"), values.at("/c"));
  EXPECT_GT(values.at("/a"), values.at("/b"));
  EXPECT_GT(values.at("/b"), values.at("/c"));
  // d and e have bit-identical vectors: factors must still merge.
  EXPECT_EQ(values.at("/d"), values.at("/e"));
  // Global ordering across different codes is untouched.
  EXPECT_GT(values.at("/c"), values.at("/d"));
  for (const auto& [path, v] : values) {
    EXPECT_GE(v, 0.0) << path;
    EXPECT_LE(v, 1.0) << path;
  }
  // Collision-free codes keep the exact legacy factor: with generous bits
  // every vector gets its own code, and the factor is merged/(scale-1).
  const auto fine = project(tree, {ProjectionKind::kBitwiseVector, 8});
  std::map<double, int> distinct_codes;
  for (const auto& [path, v] : fine) ++distinct_codes[v];
  EXPECT_EQ(distinct_codes.size(), 4u);  // d/e share; a/b/c/d each distinct
}

TEST(BitwiseProjection, AdjacentCodesBothCollidingKeepCrossCodeOrder) {
  // Regression: when two adjacent codes *both* contain collisions, the
  // code-0 up-spread and the code-1 down-spread must not overlap. With
  // 1 bit per level and one level, under-used users (positive vector
  // value) land in code 1 and over-used users (negative value) in code 0,
  // two distinct vectors in each. An unbounded up-spread would let code
  // 0's best collider meet or exceed code 1's worst; bounding code 0's
  // spread below the successor group's smallest fraction keeps the full
  // cross-code ordering strict.
  const FairshareSnapshot tree = make_tree(
      {{"/a", 1.0}, {"/b", 1.0}, {"/c", 1.0}, {"/d", 1.0}},
      {{"/a", 10.0}, {"/b", 12.0}, {"/c", 1000.0}, {"/d", 2000.0}});
  // Sanity: a/b share code 1, c/d share code 0, vectors distinct per code.
  EXPECT_GT(tree.vector_for("/a")->values()[0], 0.0);
  EXPECT_GT(tree.vector_for("/b")->values()[0], 0.0);
  EXPECT_LT(tree.vector_for("/c")->values()[0], 0.0);
  EXPECT_LT(tree.vector_for("/d")->values()[0], 0.0);
  const auto values = project(tree, {ProjectionKind::kBitwiseVector, 1});
  // Vector order is a > b > c > d; factors must follow strictly, in
  // particular code 1's worst collider stays above code 0's best.
  EXPECT_GT(values.at("/a"), values.at("/b"));
  EXPECT_GT(values.at("/b"), values.at("/c"));
  EXPECT_GT(values.at("/c"), values.at("/d"));
  // Code 1's two colliders spread down within [0.5, 1]; code 0's stay
  // strictly below that group's floor of 0.5.
  EXPECT_GE(values.at("/b"), 0.5);
  EXPECT_LT(values.at("/c"), 0.5);
  for (const auto& [path, v] : values) {
    EXPECT_GE(v, 0.0) << path;
    EXPECT_LE(v, 1.0) << path;
  }
}

TEST(PercentalProjection, PaperMaximumForIdleUser) {
  // U3 with share 0.12 and zero usage: (0.12 - 0 + 1) / 2 = 0.56.
  const FairshareSnapshot tree =
      make_tree({{"/U65", 0.47}, {"/U30", 0.385}, {"/U3", 0.12}, {"/Uoth", 0.025}},
                {{"/U65", 470.0}, {"/U30", 385.0}, {"/Uoth", 25.0}});
  // Usage shares renormalize over active users; U3 idle.
  const double u3 = percental_value(tree, "/U3");
  EXPECT_NEAR(u3, 0.56, 1e-9);
}

TEST(PercentalProjection, BalanceGivesHalf) {
  const FairshareSnapshot tree = make_tree({{"/a", 0.6}, {"/b", 0.4}},
                                           {{"/a", 60.0}, {"/b", 40.0}});
  EXPECT_NEAR(percental_value(tree, "/a"), 0.5, 1e-12);
  EXPECT_NEAR(percental_value(tree, "/b"), 0.5, 1e-12);
}

TEST(PercentalProjection, ProportionalToDeviation) {
  const FairshareSnapshot tree = make_tree({{"/a", 0.5}, {"/b", 0.5}},
                                           {{"/a", 30.0}, {"/b", 70.0}});
  const auto values = project(tree, {ProjectionKind::kPercental, 8});
  // a under-used by 0.2, b over-used by 0.2: symmetric around 0.5.
  EXPECT_NEAR(values.at("/a"), 0.6, 1e-12);
  EXPECT_NEAR(values.at("/b"), 0.4, 1e-12);
}

TEST(PercentalProjection, MultiplicativeDownPaths) {
  PolicyTree policy;
  policy.set_share("/p", 0.2);
  policy.set_share("/q", 0.8);
  policy.set_share("/p/u", 0.25);
  policy.set_share("/p/v", 0.75);
  policy.set_share("/q/w", 1.0);
  UsageTree usage;
  usage.add("/q/w", 100.0);
  const FairshareSnapshot tree = *FairshareEngine::compute_once({}, policy, usage);
  // /p/u: target 0.2 * 0.25 = 0.05, usage 0 -> (0.05 + 1)/2 = 0.525.
  EXPECT_NEAR(percental_value(tree, "/p/u"), 0.525, 1e-12);
  EXPECT_EQ(percental_value(tree, "/missing"), 0.5);
}

TEST(PercentalProjection, LacksSubgroupIsolation) {
  // Table I: percental does NOT provide subgroup isolation — a usage
  // change confined to group /b moves the value of a user in group /a
  // (via the group-level usage shares), even when /a's internal balance
  // is untouched.
  const auto tree1 = make_tree({{"/a/u1", 1.0}, {"/a/u2", 1.0}, {"/b/u3", 1.0}, {"/b/u4", 1.0}},
                               {{"/a/u1", 10.0}, {"/a/u2", 10.0}, {"/b/u3", 10.0}, {"/b/u4", 10.0}});
  const auto tree2 = make_tree({{"/a/u1", 1.0}, {"/a/u2", 1.0}, {"/b/u3", 1.0}, {"/b/u4", 1.0}},
                               {{"/a/u1", 10.0}, {"/a/u2", 10.0}, {"/b/u3", 500.0}, {"/b/u4", 10.0}});
  EXPECT_NE(percental_value(tree1, "/a/u1"), percental_value(tree2, "/a/u1"));
  // Dictionary ordering preserves the relative rank of u1 vs u2.
  const auto dict1 = project(tree1, {ProjectionKind::kDictionaryOrdering, 8});
  const auto dict2 = project(tree2, {ProjectionKind::kDictionaryOrdering, 8});
  EXPECT_EQ(dict1.at("/a/u1") == dict1.at("/a/u2"), dict2.at("/a/u1") == dict2.at("/a/u2"));
}

TEST(AllProjections, ValuesAlwaysInUnitRange) {
  const auto tree = make_tree(
      {{"/x", 0.9}, {"/y", 0.05}, {"/z", 0.05}},
      {{"/x", 1.0}, {"/y", 900.0}, {"/z", 1.0}});
  for (const auto kind : {ProjectionKind::kDictionaryOrdering,
                          ProjectionKind::kBitwiseVector, ProjectionKind::kPercental}) {
    const auto values = project(tree, {kind, 8});
    for (const auto& [path, v] : values) {
      EXPECT_GE(v, 0.0) << to_string(kind) << " " << path;
      EXPECT_LE(v, 1.0) << to_string(kind) << " " << path;
    }
  }
}

TEST(AllProjections, SingleUserTree) {
  const auto tree = make_tree({{"/only", 1.0}}, {{"/only", 5.0}});
  EXPECT_DOUBLE_EQ(project(tree, {ProjectionKind::kDictionaryOrdering, 8}).at("/only"), 0.5);
  EXPECT_NEAR(project(tree, {ProjectionKind::kPercental, 8}).at("/only"), 0.5, 1e-12);
}

}  // namespace
}  // namespace aequus::core
