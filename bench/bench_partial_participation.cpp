// Partial cluster participation (§IV-A-4): one of six sites only reads
// global usage data but does not contribute; another contributes but only
// considers local data for prioritization. Expected shape:
//   - the read-only site's priorities stay well aligned with fully
//     participating sites;
//   - the local-only site converges towards the same levels but slower
//     and with more fluctuation;
//   - the local-only site's data acts as noise for the others without a
//     noticeable impact on global prioritization.
//
// The experiment is scenarios/partial_participation.json: the partial
// configuration and the all-participating control run as one parallel
// sweep (the spec's 2 replications each); the global-impact comparison
// uses the aggregate convergence times. Emits
// BENCH_partial_participation.json.
#include <cmath>
#include <cstdio>

#include "common.hpp"

using namespace aequus;

namespace {

struct Alignment {
  double mean_gap = 0.0;   ///< mean |site priority - reference priority|
  double variance = 0.0;   ///< fluctuation of the site's own series
};

Alignment alignment_of(const testbed::ExperimentResult& result, const std::string& site,
                       const std::string& reference_site, double t0, double t1) {
  Alignment a;
  std::size_t n = 0;
  std::vector<double> values;
  for (const auto* user : {"U65", "U30", "U3", "Uoth"}) {
    const auto& site_series = result.per_site.all().at(site + "/" + user);
    const auto& reference = result.per_site.all().at(reference_site + "/" + user);
    for (std::size_t i = 0; i < site_series.size(); ++i) {
      const double t = site_series.times()[i];
      if (t < t0 || t > t1) continue;
      a.mean_gap += std::fabs(site_series.values()[i] - reference.value_at(t, 0.5));
      values.push_back(site_series.values()[i]);
      ++n;
    }
  }
  if (n > 0) a.mean_gap /= static_cast<double>(n);
  double mean = 0.0;
  for (double v : values) mean += v;
  if (!values.empty()) mean /= static_cast<double>(values.size());
  for (double v : values) a.variance += (v - mean) * (v - mean);
  if (values.size() > 1) a.variance /= static_cast<double>(values.size() - 1);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Partial cluster participation",
                      "Espling et al., IPPS'14, Section IV-A test 4");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 0, 0);
  const scenario::CompiledScenario compiled =
      bench::compile_catalog("partial_participation", args);
  const testbed::SweepSpec& spec = compiled.sweep;
  const workload::Scenario& scenario = spec.variants.front().scenario;

  std::printf("site4: reads global, does not contribute; site5: contributes, "
              "prioritizes on local data only; site0-3 fully participate\n\n");
  const testbed::SweepResult sweep = bench::run_with_progress(spec);

  // Per-site shape analysis on the first partial replication (the
  // aggregate table below covers all of them).
  const testbed::ExperimentResult& result = sweep.tasks.front().result;

  // The local-only site prioritizes on its ~1/6 sample of the workload:
  // it converges to the same levels, but "at a slower pace and with more
  // fluctuations" — most visible while its local history is still thin.
  const double end = scenario.duration_seconds;
  const Alignment full_early = alignment_of(result, "site1", "site0", 120.0, 3600.0);
  const Alignment read_only_early = alignment_of(result, "site4", "site0", 120.0, 3600.0);
  const Alignment local_only_early = alignment_of(result, "site5", "site0", 120.0, 3600.0);
  const Alignment read_only_late = alignment_of(result, "site4", "site0", 3600.0, end);
  const Alignment local_only_late = alignment_of(result, "site5", "site0", 3600.0, end);

  std::printf("mean |priority gap| to the fully-participating reference (site0):\n");
  std::printf("  %-24s  first hour   rest of run\n", "");
  std::printf("  full participant (site1)  %.4f       (reference pair)\n",
              full_early.mean_gap);
  std::printf("  read-only (site4)         %.4f       %.4f\n", read_only_early.mean_gap,
              read_only_late.mean_gap);
  std::printf("  local-only (site5)        %.4f       %.4f\n\n", local_only_early.mean_gap,
              local_only_late.mean_gap);

  // Fluctuation: mean |change between consecutive samples| of the
  // priority each site computes for the sparse users (U3, Uoth), whose
  // local sample is smallest.
  const auto fluctuation = [&](const std::string& site) {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto* user : {"U3", "Uoth"}) {
      const auto& s = result.per_site.all().at(site + "/" + user);
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (s.times()[i] > end) break;
        total += std::fabs(s.values()[i] - s.values()[i - 1]);
        ++n;
      }
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  std::printf("sparse-user (U3/Uoth) priority fluctuation per sample:\n");
  std::printf("  full %.5f | read-only %.5f | local-only %.5f\n\n", fluctuation("site0"),
              fluctuation("site4"), fluctuation("site5"));

  std::printf("shape checks:\n");
  std::printf("  read-only tracks global closely throughout: %s\n",
              (read_only_early.mean_gap < 0.06 && read_only_late.mean_gap < 0.06) ? "yes"
                                                                                  : "NO");
  std::printf("  local-only fluctuates more than participating sites: %s\n",
              fluctuation("site5") > fluctuation("site4") &&
                      fluctuation("site5") > fluctuation("site0")
                  ? "yes"
                  : "NO");
  std::printf("  local-only converges to comparable levels eventually: %s\n",
              local_only_late.mean_gap < 0.08 ? "yes" : "NO");
  (void)local_only_early;

  // Global impact: compare fully-participating sites' convergence against
  // the all-participating control, now with CIs over the replications.
  const auto& with_noise =
      sweep.aggregates.at(spec.variants.at(0).name).at("convergence_time_s");
  const auto& without_noise =
      sweep.aggregates.at(spec.variants.at(1).name).at("convergence_time_s");
  std::printf("  global convergence with vs without the partial sites: "
              "%.0f +- %.0f s vs %.0f +- %.0f s\n",
              with_noise.mean, with_noise.ci95_half, without_noise.mean,
              without_noise.ci95_half);
  std::printf("  (paper: the local-only site's noise has no noticeable impact)\n");
  // Bus drop count straight from the task's metrics snapshot — the same
  // registry the ServiceBus counts into (BusStats is a façade over it).
  std::printf("\njobs completed (replication 0): %llu/%llu, bus messages dropped by "
              "participation: %llu\n\n",
              static_cast<unsigned long long>(result.jobs_completed),
              static_cast<unsigned long long>(result.jobs_submitted),
              static_cast<unsigned long long>(
                  sweep.tasks.front().obs.counter("bus.dropped_participation")));

  bench::print_aggregates(sweep);
  // With --trace: the non-participating sites show up as broken chains
  // (participation drops leave the rpc span open); the hop tables contrast
  // the partial and control variants' update pipelines directly.
  bench::write_outputs(args, compiled, sweep);
  return 0;
}
