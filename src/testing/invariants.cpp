#include "testing/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/engine.hpp"
#include "core/fairshare.hpp"
#include "core/projection.hpp"
#include "util/strings.hpp"

namespace aequus::testing {

InvariantChecker::InvariantChecker(testbed::Experiment& experiment, InvariantOptions options)
    : experiment_(experiment), options_(options) {
  experiment_.add_tick_hook([this](double now) { check_now(now); });
}

void InvariantChecker::record(double now, const std::string& invariant,
                              const std::string& detail) {
  if (violations_.size() >= options_.max_violations) return;
  violations_.push_back({now, invariant, detail});
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += util::format("[t=%.1f] %s: %s\n", v.time, v.invariant.c_str(), v.detail.c_str());
  }
  return out;
}

double InvariantChecker::uss_recorded_total(const testbed::ClusterSite& site) {
  double total = 0.0;
  // histograms() is on the non-const Uss accessor path; the site reference
  // we get from Experiment::sites() is non-const anyway.
  auto& mutable_site = const_cast<testbed::ClusterSite&>(site);
  for (const auto& [user, bins] : mutable_site.aequus().uss().histograms()) {
    (void)user;
    for (const auto& [time, amount] : bins) {
      (void)time;
      total += amount;
    }
  }
  return total;
}

void InvariantChecker::check_now(double now) {
  ++checks_;
  if (violations_.size() >= options_.max_violations) return;
  check_usage_conservation(now);
  check_tree_consistency(now);
  check_priority_monotonicity(now);
}

void InvariantChecker::check_usage_conservation(double now) {
  double recorded = 0.0;
  for (const auto& site : experiment_.sites()) recorded += uss_recorded_total(*site);
  const double completed = experiment_.total_completed_usage();
  // Reports trail completions by one bus hop and may be dropped by faults,
  // so the recorded side can only ever lag. Duplication is the one fault
  // that legitimately inflates it — skip the upper bound then.
  if (experiment_.bus().fault_plan().duplicate_rate > 0.0) return;
  const double bound = completed * (1.0 + options_.conservation_slack);
  if (recorded > bound + 1e-9) {
    record(now, "usage-conservation",
           util::format("recorded %.6f core-s exceeds charged %.6f", recorded, completed));
  }
}

void InvariantChecker::check_tree_consistency(double now) {
  const auto& policy_shares = experiment_.scenario().policy_shares;
  for (const auto& site : experiment_.sites()) {
    const auto& tree = site->aequus().ums().usage_tree();
    double leaf_sum = 0.0;
    for (const auto& [path, amount] : tree.leaves()) {
      if (amount < 0.0) {
        record(now, "tree-consistency",
               util::format("%s: negative usage %.6f at %s", site->name().c_str(), amount,
                            path.c_str()));
      }
      leaf_sum += amount;
      const auto segments = core::split_path(path);
      if (segments.empty() || policy_shares.count(segments.back()) == 0) {
        record(now, "tree-consistency",
               util::format("%s: usage leaf %s does not map to a policy user",
                            site->name().c_str(), path.c_str()));
      }
    }
    const double slack = 1e-9 * std::max(1.0, leaf_sum);
    if (std::fabs(tree.total() - leaf_sum) > slack ||
        std::fabs(tree.usage("/") - leaf_sum) > slack) {
      record(now, "tree-consistency",
             util::format("%s: aggregate mismatch (total %.9f, root %.9f, leaves %.9f)",
                          site->name().c_str(), tree.total(), tree.usage("/"), leaf_sum));
    }
  }
}

void InvariantChecker::check_priority_monotonicity(double now) {
  const auto& scenario = experiment_.scenario();
  const auto& fairshare = experiment_.config().fairshare;
  core::PolicyTree policy;
  for (const auto& [user, share] : scenario.policy_shares) {
    policy.set_share("/" + user, share);
  }
  const bool rank_spaced =
      fairshare.projection.kind == core::ProjectionKind::kDictionaryOrdering;

  for (const auto& site : experiment_.sites()) {
    const auto& usage = site->aequus().ums().usage_tree();
    const core::FairshareSnapshotPtr tree =
        core::FairshareEngine::compute_once(fairshare.algorithm, policy, usage);
    const auto factors = core::project(*tree, fairshare.projection);

    struct User {
      std::string name;
      double share;
      double usage;
      double factor;
      std::optional<core::FairshareVector> vector;
    };
    std::vector<User> users;
    for (const auto& [user, share] : scenario.policy_shares) {
      const std::string path = "/" + user;
      const auto factor_it = factors.find(path);
      if (factor_it == factors.end()) continue;
      users.push_back(
          {user, share, usage.usage(path), factor_it->second, tree->vector_for(path)});
    }

    for (std::size_t i = 0; i < users.size(); ++i) {
      for (std::size_t j = i + 1; j < users.size(); ++j) {
        const User& a = users[i];
        const User& b = users[j];
        if (a.share != b.share) continue;
        // Equal target, strictly less usage => at least as high a factor.
        const User& low = a.usage <= b.usage ? a : b;
        const User& high = a.usage <= b.usage ? b : a;
        if (low.usage < high.usage &&
            low.factor < high.factor - options_.monotonicity_epsilon) {
          record(now, "priority-monotonicity",
                 util::format("%s: %s (usage %.3f, factor %.6f) below %s (usage %.3f, "
                              "factor %.6f) despite equal share",
                              site->name().c_str(), low.name.c_str(), low.usage, low.factor,
                              high.name.c_str(), high.usage, high.factor));
        }
        // Identical fairshare vectors must project identically. Dictionary
        // ordering is rank-spaced and ties get distinct ranks by design
        // (Table I: loses proportionality), so it is exempt.
        if (!rank_spaced && a.vector && b.vector &&
            a.vector->compare(*b.vector) == std::strong_ordering::equal &&
            std::fabs(a.factor - b.factor) > options_.monotonicity_epsilon) {
          record(now, "priority-monotonicity",
                 util::format("%s: identical vectors for %s and %s but factors %.9f vs %.9f",
                              site->name().c_str(), a.name.c_str(), b.name.c_str(), a.factor,
                              b.factor));
        }
      }
    }
  }
}

void InvariantChecker::check_reconvergence() {
  const double now = experiment_.simulator().now();
  for (const ViewGap& gap : view_gaps(experiment_)) {
    if (gap.relative() > options_.convergence_tolerance) {
      record(now, "view-reconvergence",
             util::format("%s vs %s disagree on %s: %.3f vs %.3f (scale %.3f)",
                          gap.a->name().c_str(), gap.b->name().c_str(), gap.path.c_str(),
                          gap.value_a, gap.value_b, gap.scale));
    }
  }
}

void InvariantChecker::check_conservation_final() {
  const double now = experiment_.simulator().now();
  double recorded = 0.0;
  for (const auto& site : experiment_.sites()) recorded += uss_recorded_total(*site);
  const double completed = experiment_.total_completed_usage();
  const double slack = std::max(1.0, completed) * std::max(options_.conservation_slack, 1e-9);
  if (std::fabs(recorded - completed) > slack) {
    record(now, "usage-conservation-final",
           util::format("recorded %.6f core-s != charged %.6f after drain", recorded,
                        completed));
  }
}

std::vector<ViewGap> view_gaps(testbed::Experiment& experiment) {
  // Only fully participating sites are required to agree: read-only sites
  // legitimately see extra (their own unshared) usage, local-only sites
  // legitimately see less.
  std::vector<testbed::ClusterSite*> participants;
  for (const auto& site : experiment.sites()) {
    const auto& participation = site->spec().participation;
    if (participation.contributes && participation.reads_global) {
      participants.push_back(site.get());
    }
  }
  std::vector<ViewGap> gaps;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    for (std::size_t j = i + 1; j < participants.size(); ++j) {
      const core::UsageTree& tree_a = participants[i]->aequus().ums().usage_tree();
      const core::UsageTree& tree_b = participants[j]->aequus().ums().usage_tree();
      const double scale = std::max({tree_a.total(), tree_b.total(), 1e-9});
      std::set<std::string> keys;
      for (const auto& [path, amount] : tree_a.leaves()) (void)amount, keys.insert(path);
      for (const auto& [path, amount] : tree_b.leaves()) (void)amount, keys.insert(path);
      for (const auto& path : keys) {
        const auto it_a = tree_a.leaves().find(path);
        const auto it_b = tree_b.leaves().find(path);
        gaps.push_back({participants[i], participants[j], path,
                        it_a != tree_a.leaves().end() ? it_a->second : 0.0,
                        it_b != tree_b.leaves().end() ? it_b->second : 0.0, scale});
      }
    }
  }
  return gaps;
}

}  // namespace aequus::testing
