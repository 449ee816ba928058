// Ablation: combining fairshare with other priority factors.
//
// §IV-A: "Complementary tests with other factors in addition to fairshare
// have been performed, and show that other factors have a smoothing
// effect (with impact relative to their weight) on the fluctuating
// behavior natural to fairshare."
//
// The bench runs the baseline with the SLURM multifactor plugin at
// increasing age-factor weights. With fairshare alone, a user's service
// order swings with the fairshare factor's fluctuations: some jobs jump
// the queue, others starve until the factor recovers, so queue waits are
// erratic. The monotone age component dampens those swings in proportion
// to its weight, pulling waits towards FIFO regularity — measured here as
// the coefficient of variation of queue waits.
//
// The experiment is scenarios/ablation_smoothing.json (one variant per age
// weight), run as one parallel sweep.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

using namespace aequus;

namespace {

/// Pooled coefficient of variation of queue waits across all users.
double wait_cv(const testbed::ExperimentResult& result) {
  std::vector<double> waits;
  for (const auto& [user, series] : result.waits.all()) {
    (void)user;
    waits.insert(waits.end(), series.values().begin(), series.values().end());
  }
  return stats::coefficient_of_variation(waits);
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Ablation: smoothing effect of non-fairshare factors",
                      "Espling et al., IPPS'14, Section IV-A (complementary tests)");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 0, 0);
  scenario::CompiledScenario compiled = bench::compile_catalog("ablation_smoothing", args);
  testbed::SweepSpec& spec = compiled.sweep;
  spec.on_teardown = [](testbed::Experiment&, testbed::SweepTaskResult& slot) {
    slot.metrics["wait_cv"] = wait_cv(slot.result);
  };
  const testbed::SweepResult sweep = bench::run_with_progress(spec);

  util::Table table({"Weights (fairshare:age)", "Completed", "Utilization",
                     "Wait CV (lower = smoother service)"});
  for (const testbed::SweepVariant& variant : spec.variants) {
    const auto& aggregate = sweep.aggregates.at(variant.name);
    const slurm::MultifactorWeights& weights = variant.config.fairshare.slurm_weights;
    table.add_row({util::format("%.1f : %.1f", weights.fairshare, weights.age),
                   util::format("%.0f/%.0f", aggregate.at("jobs_completed").mean,
                                aggregate.at("jobs_submitted").mean),
                   util::format("%.1f%%", 100.0 * aggregate.at("mean_utilization").mean),
                   util::format("%.3f", aggregate.at("wait_cv").mean)});
  }
  const auto wait_cv_of = [&](const testbed::SweepVariant& variant) {
    return sweep.aggregates.at(variant.name).at("wait_cv").mean;
  };
  const double first = wait_cv_of(spec.variants.front());
  const double last = wait_cv_of(spec.variants.back());

  std::printf("%s\n", table.render().c_str());
  std::printf("service regularity improves with the age weight (CV %.3f -> %.3f): %s\n\n",
              first, last,
              last < first ? "yes (smoothing effect, impact relative to weight)" : "NO");
  bench::write_outputs(args, compiled, sweep);
  return 0;
}
