// Figure 11 (impact of update delay, §IV-A-2): the baseline is scaled up
// ten times in arrival times and durations while every delay source stays
// constant — (I) reporting latency, (II) USS/UMS/FCS cache periods,
// (III) the libaequus cache TTL, (IV) the RM re-prioritization interval.
// Relative to the run length the delays are then 10x smaller; the paper
// measures a 10-15 % shorter convergence time (as a fraction of the run),
// ruling update delay out as a significant error source for the
// compressed tests.
//
// The experiment is scenarios/fig11_update_delay.json, whose experiment
// overlay holds the shared cadences and decay; both variants run as one
// parallel sweep (the spec's 3 replications each) so the convergence
// fractions carry confidence intervals. Emits a BENCH JSON report.
#include <cstdio>

#include "common.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Figure 11: impact of update/processing delay",
                      "Espling et al., IPPS'14, Section IV-A test 2");

  // The spec's default is a lighter 12k-job baseline than 43,200 jobs:
  // the x10 run simulates 60 hours of service chatter.
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 0, 0);
  const scenario::CompiledScenario compiled = bench::compile_catalog("fig11_update_delay", args);
  const testbed::SweepSpec& spec = compiled.sweep;
  const testbed::SweepVariant& base = spec.variants.at(0);
  const testbed::SweepVariant& scaled = spec.variants.at(1);
  std::printf("baseline: %zu jobs over %.0f s; x10: %zu jobs over %.0f s, same delays\n",
              base.scenario.trace.size(), base.scenario.duration_seconds,
              scaled.scenario.trace.size(), scaled.scenario.duration_seconds);
  const testbed::SweepResult sweep = bench::run_with_progress(spec);

  // Headline numbers come from the merged metrics snapshots: every
  // Experiment records "experiment.convergence_time_s" into its registry,
  // run_sweep merges the per-task snapshots in task-index order, and the
  // gauge mean equals the aggregate-table mean bit for bit (same sums,
  // same order). The aggregates still supply the CIs.
  const obs::Snapshot& base_obs = sweep.obs.at(base.name);
  const obs::Snapshot& scaled_obs = sweep.obs.at(scaled.name);
  const obs::GaugeValue base_convergence = base_obs.gauge("experiment.convergence_time_s");
  const obs::GaugeValue scaled_convergence = scaled_obs.gauge("experiment.convergence_time_s");
  const double base_fraction = base_convergence.mean() / base.scenario.duration_seconds;
  const double scaled_fraction = scaled_convergence.mean() / scaled.scenario.duration_seconds;

  std::printf("convergence to balance +-%.2f (priorities, mean +- 95%% CI over %llu reps):\n",
              spec.convergence_epsilon,
              static_cast<unsigned long long>(base_convergence.samples));
  std::printf("  baseline: %8.0f +- %5.0f s = %5.1f%% of the run\n", base_convergence.mean(),
              sweep.aggregates.at(base.name).at("convergence_time_s").ci95_half,
              100.0 * base_fraction);
  std::printf("  x10 run : %8.0f +- %5.0f s = %5.1f%% of the run\n", scaled_convergence.mean(),
              sweep.aggregates.at(scaled.name).at("convergence_time_s").ci95_half,
              100.0 * scaled_fraction);
  if (base_convergence.mean() >= 0 && scaled_convergence.mean() >= 0 && base_fraction > 0) {
    std::printf("  relative convergence time shortened by %.1f%% (paper: 10-15%%)\n",
                100.0 * (1.0 - scaled_fraction / base_fraction));
  }

  std::printf("\nmean utilization: baseline %.1f%%, x10 %.1f%%\n",
              100.0 * base_obs.gauge("experiment.mean_utilization").mean(),
              100.0 * scaled_obs.gauge("experiment.mean_utilization").mean());
  std::printf("conclusion check: update delays are a modest, not dominant, error\n"
              "source for the time-compressed tests.\n\n");

  bench::print_aggregates(sweep);
  // With --trace: the analyzer's per-hop decomposition of the update
  // pipeline (jobcomp -> client -> UMS/USS -> FCS -> reprioritize), the
  // direct measurement behind this experiment's delay budget. Chain means
  // land in the JSON extras.
  bench::write_outputs(args, compiled, sweep);
  return 0;
}
