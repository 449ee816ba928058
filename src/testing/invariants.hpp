// System-level invariant checking for testbed experiments.
//
// An InvariantChecker attaches to a testbed::Experiment sampling tick and
// asserts, at every tick, the properties a decentralized fairshare system
// must keep even under injected faults:
//
//   1. usage conservation — the usage recorded across all USS instances
//      never exceeds the core-seconds actually charged for completed jobs
//      (and, in lossless runs, eventually equals it);
//   2. structural consistency — every site's UMS usage tree is
//      non-negative, internally additive, and maps onto the experiment's
//      policy leaves;
//   3. priority monotonicity — recomputing fairshare from any site's live
//      usage view, users with equal policy shares order opposite to their
//      usage, and identical fairshare vectors project to identical
//      factors.
//
// After the run, check_reconvergence() asserts that the replicated usage
// views of all fully participating sites have converged — the "views
// reconverge once faults clear" property — and, for lossless runs,
// check_conservation_final() asserts exact conservation.
//
// Violations are collected (not thrown), so one failing tick does not
// hide later ones; ok()/report() feed the test assertion.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "testbed/experiment.hpp"

namespace aequus::testing {

struct InvariantOptions {
  /// Relative slack on "recorded <= completed" (covers double rounding
  /// across many accumulations).
  double conservation_slack = 1e-9;
  /// Relative per-leaf disagreement tolerated between replicated usage
  /// views at reconvergence.
  double convergence_tolerance = 0.02;
  /// Slack on monotonicity/equality comparisons of projected factors.
  double monotonicity_epsilon = 1e-9;
  /// Stop recording after this many violations (the report stays legible
  /// when an experiment goes completely sideways).
  std::size_t max_violations = 32;
};

class InvariantChecker {
 public:
  struct Violation {
    double time = 0.0;
    std::string invariant;
    std::string detail;
  };

  /// Registers the per-tick hook on `experiment`; call before run().
  /// The experiment must outlive the checker.
  explicit InvariantChecker(testbed::Experiment& experiment, InvariantOptions options = {});

  /// The per-tick hook body (also callable directly in tests).
  void check_now(double now);

  /// Post-run: replicated usage views of fully participating sites agree
  /// within `convergence_tolerance`. Meaningful once outage windows have
  /// ended and a few update intervals have passed (the drain phase).
  void check_reconvergence();

  /// Post-run, lossless runs only: recorded usage equals charged usage.
  void check_conservation_final();

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }

  /// Human-readable list of violations (empty string when ok()).
  [[nodiscard]] std::string report() const;

 private:
  void record(double now, const std::string& invariant, const std::string& detail);
  void check_usage_conservation(double now);
  void check_tree_consistency(double now);
  void check_priority_monotonicity(double now);

  /// Sum of all histogram bins currently held by one site's USS.
  [[nodiscard]] static double uss_recorded_total(const testbed::ClusterSite& site);

  testbed::Experiment& experiment_;
  InvariantOptions options_;
  std::vector<Violation> violations_;
  std::uint64_t checks_ = 0;
};

/// One leaf's disagreement between two fully participating sites'
/// replicated UMS usage views.
struct ViewGap {
  const testbed::ClusterSite* a = nullptr;
  const testbed::ClusterSite* b = nullptr;
  std::string path;      ///< usage-tree leaf
  double value_a = 0.0;  ///< the leaf's usage in a's view (0 when absent)
  double value_b = 0.0;
  double scale = 0.0;    ///< max(total of a, total of b, 1e-9)

  /// |value_a - value_b| / scale: the per-leaf disagreement
  /// check_reconvergence() compares against its tolerance.
  [[nodiscard]] double relative() const noexcept {
    return std::fabs(value_a - value_b) / scale;
  }
};

/// Every leaf of every pair of fully participating sites (read-only and
/// local-only sites legitimately disagree), over the union of the two
/// views' leaves. The worst relative() over time shows the views diverge
/// during an outage and reconverge after it.
[[nodiscard]] std::vector<ViewGap> view_gaps(testbed::Experiment& experiment);

}  // namespace aequus::testing
