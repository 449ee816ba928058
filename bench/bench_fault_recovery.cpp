// Fault recovery: time-to-reconvergence of the replicated usage views as
// a function of inter-site message loss.
//
// The experiment is scenarios/fault_recovery.json: a 3 x 8 grid, a hard
// outage of site1 over [1/3, 13/36) of the run (ten minutes of the
// six-hour window), and one variant per base loss rate. At every
// sampling tick the bench records the worst testing::view_gaps entry:
// the largest pairwise relative disagreement between the sites' UMS
// usage views, the quantity check_reconvergence() bounds. The
// reconvergence time is how long after the outage ends that disagreement
// takes to drop (and stay) below the tolerance. The paper's premise —
// decentralized exchange tolerates degraded networks by serving
// stale-but-sane data — predicts graceful growth with loss, not a cliff.
//
// The loss rates form the variants of one parallel sweep (the spec's 2
// replications per rate, each with a re-derived fault seed, so the
// recovery times carry confidence intervals over loss realizations).
// Emits BENCH_fault_recovery.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "testing/invariants.hpp"
#include "util/timeseries.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Fault recovery: reconvergence time vs message loss",
                      "fault-injection harness; extends §IV-A failure analysis");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 0, 0);
  const double tolerance = 0.02;
  scenario::CompiledScenario compiled = bench::compile_catalog("fault_recovery", args);
  testbed::SweepSpec& spec = compiled.sweep;
  const workload::Scenario& scenario = spec.variants.front().scenario;
  const net::OutageWindow outage = spec.variants.front().config.faults.outages.at(0);

  std::printf("%zu jobs, %d sites, outage of %s over [%.0f, %.0f) s,\n",
              scenario.trace.size(), scenario.cluster_count, outage.site.c_str(), outage.start,
              outage.end);
  std::printf("reconvergence = max pairwise UMS view divergence < %.0f%%\n\n",
              100.0 * tolerance);

  // Per-task observers, addressed by task index so concurrent tasks never
  // share state: an invariant checker and the divergence tick series.
  // The hook chains compile_catalog's (--trace) setup.
  std::vector<std::unique_ptr<testing::InvariantChecker>> checkers(spec.task_count());
  std::vector<util::Series> divergences(spec.task_count());
  spec.on_setup = [&, prior_setup = spec.on_setup](testbed::Experiment& experiment,
                                                   std::size_t task_index) {
    if (prior_setup) prior_setup(experiment, task_index);
    checkers[task_index] = std::make_unique<testing::InvariantChecker>(experiment);
    experiment.add_tick_hook([&experiment, &divergences, task_index](double now) {
      double worst = 0.0;
      for (const testing::ViewGap& gap : testing::view_gaps(experiment)) {
        worst = std::max(worst, gap.relative());
      }
      divergences[task_index].add(now, worst);
    });
  };
  spec.on_teardown = [&](testbed::Experiment& experiment, testbed::SweepTaskResult& slot) {
    testing::InvariantChecker& checker = *checkers[slot.task_index];
    checker.check_reconvergence();
    slot.metrics["invariants_ok"] = checker.ok() ? 1.0 : 0.0;

    std::uint64_t retries = 0;
    for (auto& site : experiment.sites()) retries += site->client().stats().refresh_retries;
    slot.metrics["refresh_retries"] = static_cast<double>(retries);

    // Peak divergence, and the earliest tick after which the divergence
    // never rises above the tolerance again.
    const util::Series& divergence = divergences[slot.task_index];
    double peak = 0.0;
    double reconverged_at = -1.0;
    for (std::size_t i = 0; i < divergence.size(); ++i) {
      peak = std::max(peak, divergence.values()[i]);
    }
    for (std::size_t i = divergence.size(); i-- > 0;) {
      if (divergence.values()[i] > tolerance) {
        if (i + 1 < divergence.size()) reconverged_at = divergence.times()[i + 1];
        break;
      }
      reconverged_at = divergence.times()[i];
    }
    slot.metrics["peak_divergence"] = peak;
    slot.metrics["reconverged_at_s"] = reconverged_at;
    slot.metrics["recovery_s"] =
        reconverged_at >= 0.0 ? std::max(0.0, reconverged_at - outage.end) : -1.0;
  };

  const testbed::SweepResult sweep = bench::run_with_progress(spec);

  std::printf("%8s %12s %14s %14s %10s %9s %6s\n", "loss", "peak div", "reconverged",
              "recovery", "dropped", "retries", "inv");
  for (const testbed::SweepVariant& variant : spec.variants) {
    const auto& aggregate = sweep.aggregates.at(variant.name);
    std::printf("%7.0f%% %10.1f%%  %11.0f s  %7.0f+-%.0f s %10.0f %9.0f %6s\n",
                100.0 * variant.config.faults.loss_rate,
                100.0 * aggregate.at("peak_divergence").mean,
                aggregate.at("reconverged_at_s").mean, aggregate.at("recovery_s").mean,
                aggregate.at("recovery_s").ci95_half, aggregate.at("bus_dropped").mean,
                aggregate.at("refresh_retries").mean,
                aggregate.at("invariants_ok").min >= 1.0 ? "ok" : "FAIL");
  }

  std::printf("\nreading: the outage dominates peak divergence; higher loss delays\n");
  std::printf("the cleanup polls, stretching recovery roughly with 1/(1-loss)^2\n");
  std::printf("(both poll legs must survive) rather than collapsing the system.\n\n");

  bench::print_aggregates(sweep);
  bench::write_outputs(args, compiled, sweep);

  // Exit nonzero if any run failed its invariants or lost jobs — this
  // bench doubles as a long-form fault soak.
  for (const auto& [variant, metrics] : sweep.aggregates) {
    (void)variant;
    if (metrics.at("invariants_ok").min < 1.0) return 1;
    if (metrics.at("jobs_completed").min <= 0.0) return 1;
  }
  return 0;
}
