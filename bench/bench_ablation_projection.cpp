// Ablation: projection algorithms in the integrated system.
//
// Table I characterizes the three projections statically; §III-C notes
// "in-depth evaluation, characterization, and fine tuning of the above
// mentioned algorithms is part of our planned future work". This
// ablation performs that comparison dynamically: the same baseline
// workload scheduled under each projection, comparing utilization and the
// mean scheduler priority at job start per user (the factor the RM
// actually sorted by).
//
// The experiment is scenarios/ablation_projection.json (one variant per
// projection), run as one parallel sweep.
//
// Expected shape: all three keep utilization high and all complete the
// workload; percental/bitwise start-priorities scale with the magnitude
// of each user's imbalance, while dictionary ordering is rank-spaced.
#include <cstdio>

#include "common.hpp"
#include "util/table.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Ablation: projection algorithms end to end",
                      "Espling et al., IPPS'14, Table I / Section III-C");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 0, 0);
  scenario::CompiledScenario compiled = bench::compile_catalog("ablation_projection", args);
  testbed::SweepSpec& spec = compiled.sweep;
  const char* const users[] = {"U65", "U30", "U3", "Uoth"};
  // Mean scheduler priority at job start per user, per task (-1 when the
  // user started no job).
  spec.on_teardown = [&users](testbed::Experiment&, testbed::SweepTaskResult& slot) {
    for (const char* user : users) {
      const auto it = slot.result.start_priorities.all().find(user);
      double mean = -1.0;
      if (it != slot.result.start_priorities.all().end() && !it->second.empty()) {
        mean = 0.0;
        for (double v : it->second.values()) mean += v;
        mean /= static_cast<double>(it->second.size());
      }
      slot.metrics[std::string("start_priority_") + user] = mean;
    }
  };
  const testbed::SweepResult sweep = bench::run_with_progress(spec);

  util::Table table({"Projection", "Completed", "Utilization", "U65 prio@start",
                     "U30 prio@start", "U3 prio@start", "Uoth prio@start"});
  for (const testbed::SweepVariant& variant : spec.variants) {
    const auto& aggregate = sweep.aggregates.at(variant.name);
    std::vector<std::string> row = {
        core::to_string(variant.config.fairshare.projection.kind),
        util::format("%.0f/%.0f", aggregate.at("jobs_completed").mean,
                     aggregate.at("jobs_submitted").mean),
        util::format("%.1f%%", 100.0 * aggregate.at("mean_utilization").mean)};
    for (const char* user : users) {
      const auto& start_priority = aggregate.at(std::string("start_priority_") + user);
      row.push_back(start_priority.min >= 0.0 ? util::format("%.3f", start_priority.mean)
                                              : "n/a");
    }
    table.add_row(std::move(row));
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("all projections complete the workload at full utilization; they\n"
              "differ in how the [0,1] factor encodes the imbalance (Table I).\n\n");
  bench::write_outputs(args, compiled, sweep);
  return 0;
}
