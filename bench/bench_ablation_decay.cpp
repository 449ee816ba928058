// Ablation: usage decay functions.
//
// §II-A: the algorithm "can be configured with, e.g., different usage
// decay functions to control how the impact of previous usage is
// decreased over time". The paper's evaluation fixes one configuration;
// this ablation runs the baseline scenario under no decay, exponential
// half-lives of 1 h and 24 h, a 2 h sliding window, and a 2 h linear ramp,
// and compares convergence and priority fluctuation.
//
// The experiment is scenarios/ablation_decay.json (one variant per decay
// function), run as one parallel sweep.
//
// Expected shape: long-memory configurations (no decay / 24 h half-life)
// converge smoothly, since they track cumulative shares; short-memory
// configurations react faster to recent imbalance but fluctuate more.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/table.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Ablation: usage decay functions",
                      "Espling et al., IPPS'14, Section II-A (parameterized decay)");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 0, 0);
  scenario::CompiledScenario compiled = bench::compile_catalog("ablation_decay", args);
  testbed::SweepSpec& spec = compiled.sweep;
  // Fluctuation (mean |delta| between consecutive priority samples) and
  // the worst |priority - 0.5| of the last 30 minutes, per task.
  spec.on_teardown = [](testbed::Experiment& experiment, testbed::SweepTaskResult& slot) {
    const double end = experiment.scenario().duration_seconds;
    double fluctuation = 0.0;
    double end_deviation = 0.0;
    std::size_t n = 0;
    for (const auto& [user, s] : slot.result.priorities.all()) {
      (void)user;
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (s.times()[i] > end) break;
        fluctuation += std::fabs(s.values()[i] - s.values()[i - 1]);
        ++n;
      }
      end_deviation = std::max(end_deviation, s.max_deviation_in(end - 1800.0, end, 0.5));
    }
    slot.metrics["fluctuation"] = n > 0 ? fluctuation / static_cast<double>(n) : 0.0;
    slot.metrics["end_deviation"] = end_deviation;
  };
  const testbed::SweepResult sweep = bench::run_with_progress(spec);

  util::Table table({"Decay", "Convergence (min)", "Fluct./sample", "End |dev|"});
  for (const testbed::SweepVariant& variant : spec.variants) {
    const auto& aggregate = sweep.aggregates.at(variant.name);
    table.add_row({variant.name.substr(variant.name.find('/') + 1),
                   aggregate.at("converged").min >= 1.0
                       ? util::format("%.0f", aggregate.at("convergence_time_s").mean / 60.0)
                       : "n/a",
                   util::format("%.5f", aggregate.at("fluctuation").mean),
                   util::format("%.3f", aggregate.at("end_deviation").mean)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("long-memory decay tracks cumulative shares (smooth, converges);\n"
              "short-memory reacts faster but fluctuates with recent completions.\n\n");
  bench::write_outputs(args, compiled, sweep);
  return 0;
}
