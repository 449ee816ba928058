#include "scenario/compile.hpp"

#include <algorithm>
#include <cmath>

#include "testbed/config.hpp"
#include "testing/determinism.hpp"
#include "util/strings.hpp"
#include "workload/scenarios.hpp"

namespace aequus::scenario {

namespace {

/// A phase schedule completed into contiguous segments covering [0, 1]:
/// declared phases keep their rate, gaps get rate 1.
struct Segment {
  double start = 0.0;
  double end = 0.0;
  double rate = 1.0;
  double cumulative = 0.0;  ///< intensity mass below `start`
};

std::vector<Segment> complete_schedule(const std::vector<PhaseSpec>& phases) {
  std::vector<Segment> segments;
  double cursor = 0.0;
  for (const PhaseSpec& phase : phases) {  // parse_phases sorted + disjoint
    if (phase.start > cursor) segments.push_back({cursor, phase.start, 1.0, 0.0});
    segments.push_back({phase.start, phase.end, phase.rate, 0.0});
    cursor = phase.end;
  }
  if (cursor < 1.0) segments.push_back({cursor, 1.0, 1.0, 0.0});
  double mass = 0.0;
  for (Segment& segment : segments) {
    segment.cumulative = mass;
    mass += segment.rate * (segment.end - segment.start);
  }
  return segments;
}

workload::Scenario build_base(const WorkloadSpec& workload, std::size_t jobs) {
  if (workload.base == "baseline") return workload::baseline_scenario(workload.seed, jobs);
  if (workload.base == "nonoptimal-policy") {
    return workload::nonoptimal_policy_scenario(workload.seed, jobs);
  }
  if (workload.base == "bursty") return workload::bursty_scenario(workload.seed, jobs);
  throw SpecError("$.workload.base: unknown base workload '" + workload.base + "'");
}

/// Cluster/host overrides change capacity; rescale durations by the
/// capacity ratio so the trace still carries target_load of the new
/// testbed (the generators targeted the default 6 x 40).
void apply_sizing(workload::Scenario& scenario, const WorkloadSpec& workload) {
  if (workload.clusters <= 0 && workload.hosts_per_cluster <= 0) return;
  const double before = scenario.capacity_core_seconds();
  if (workload.clusters > 0) scenario.cluster_count = workload.clusters;
  if (workload.hosts_per_cluster > 0) scenario.hosts_per_cluster = workload.hosts_per_cluster;
  const double after = scenario.capacity_core_seconds();
  if (before <= 0.0 || after == before) return;
  const double ratio = after / before;
  for (auto& record : scenario.trace.records()) record.duration *= ratio;
}

/// Fault sites bind to the experiment's "site<N>" names: any other name
/// would silently never fire, so it fails with its JSON path.
void check_site_name(const std::string& site, int clusters, const std::string& path) {
  for (int i = 0; i < clusters; ++i) {
    if (site == "site" + std::to_string(i)) return;
  }
  throw SpecError(util::format("%s: '%s' does not name a testbed site (site0..site%d)",
                               path.c_str(), site.c_str(), clusters - 1));
}

net::FaultPlan lower_faults(const FaultSpec& faults, double duration) {
  net::FaultPlan plan;
  plan.loss_rate = faults.loss_rate;
  plan.duplicate_rate = faults.duplicate_rate;
  plan.latency_jitter = faults.latency_jitter;
  plan.seed = faults.seed;
  for (const LinkLossSpec& link : faults.link_loss) {
    plan.link_loss[{link.from, link.to}] = link.rate;
  }
  for (const OutageSpec& outage : faults.outages) {
    plan.outages.push_back({outage.site, outage.start * duration, outage.end * duration});
  }
  return plan;
}

}  // namespace

std::size_t effective_jobs(const WorkloadSpec& workload, const CompileOptions& options) {
  double jobs = static_cast<double>(workload.jobs) * options.jobs_scale;
  if (options.max_jobs > 0) jobs = std::min(jobs, static_cast<double>(options.max_jobs));
  jobs = std::max(jobs, static_cast<double>(options.min_jobs));
  return static_cast<std::size_t>(jobs);
}

workload::Trace remap_arrivals(const workload::Trace& trace,
                               const std::vector<PhaseSpec>& phases, double duration) {
  if (phases.empty() || trace.empty() || duration <= 0.0) return trace;
  const std::vector<Segment> segments = complete_schedule(phases);
  const Segment& last = segments.back();
  const double mass = last.cumulative + last.rate * (last.end - last.start);
  if (mass <= 0.0) {
    throw SpecError("$.phases: schedule carries no arrival mass (all rates are 0)");
  }

  workload::Trace out = trace;
  for (auto& record : out.records()) {
    const double quantile = std::clamp(record.submit / duration, 0.0, 1.0);
    const double target = quantile * mass;
    // Find the segment holding `target` and invert its linear ramp.
    double remapped = last.end;
    for (const Segment& segment : segments) {
      const double segment_mass = segment.rate * (segment.end - segment.start);
      if (target <= segment.cumulative + segment_mass || &segment == &last) {
        remapped = segment.rate > 0.0
                       ? segment.start + (target - segment.cumulative) / segment.rate
                       : segment.end;
        break;
      }
    }
    record.submit = std::clamp(remapped, 0.0, 1.0) * duration;
  }
  out.sort_by_submit();
  return out;
}

workload::Trace apply_churn(const workload::Trace& trace, const std::vector<ChurnSpec>& churn,
                            double duration) {
  if (churn.empty() || trace.empty() || duration <= 0.0) return trace;
  workload::Trace out;
  for (const auto& record : trace.records()) {
    bool constrained = false;
    bool present = false;
    for (const ChurnSpec& entry : churn) {
      if (entry.user != record.user) continue;
      constrained = true;
      const double fraction = record.submit / duration;
      if (fraction >= entry.join && fraction < entry.leave) {
        present = true;
        break;
      }
    }
    if (!constrained || present) out.add(record);
  }
  return out;
}

CompiledScenario compile(const ScenarioSpec& spec, const CompileOptions& options) {
  CompiledScenario compiled;
  compiled.name = spec.name;
  compiled.gates = spec.gates;
  compiled.record = spec.record;
  compiled.jobs = effective_jobs(spec.workload, options);

  workload::Scenario base = build_base(spec.workload, compiled.jobs);
  apply_sizing(base, spec.workload);
  if (!spec.policy_shares.empty()) base.policy_shares = spec.policy_shares;
  if (!spec.phases.empty()) {
    base.trace = remap_arrivals(base.trace, spec.phases, base.duration_seconds);
  }
  if (!spec.churn.empty()) {
    base.trace = apply_churn(base.trace, spec.churn, base.duration_seconds);
  }
  base.name = spec.name;

  std::vector<VariantSpec> variants = spec.variants;
  if (variants.empty()) {
    VariantSpec implicit;
    implicit.name = "";
    variants.push_back(std::move(implicit));
  }

  for (const VariantSpec& variant : variants) {
    const double scale = variant.scale * options.time_scale;
    workload::Scenario scenario;
    if (scale != 1.0) {
      scenario = workload::scaled_scenario(base, scale);
    } else if (&variant == &variants.back()) {
      scenario = std::move(base);  // the last variant needs no copy of the trace
    } else {
      scenario = base;
    }
    const std::string variant_path =
        variant.name.empty() ? "$" : "$.variants[" + variant.name + "]";

    // The spec's "fairness" selection sits *below* the experiment and
    // variant overlays, so a variant overriding fairshare.backend (the
    // backend_faceoff pattern) wins over the scenario-wide default.
    json::Object fairness_overlay;
    fairness_overlay["fairshare"] =
        json::Value(json::Object{{"backend", core::to_json(spec.fairness)}});
    json::Value merged = deep_merge(json::Value(std::move(fairness_overlay)),
                                    deep_merge(spec.experiment, variant.experiment));
    if (merged.is_null()) merged = json::Value(json::Object{});
    testbed::ExperimentConfig config = json::decode<testbed::ExperimentConfig>(merged);
    const FaultSpec& faults = variant.faults ? *variant.faults : spec.faults;
    const std::string faults_path = variant.faults ? variant_path + ".faults" : "$.faults";
    for (std::size_t i = 0; i < faults.outages.size(); ++i) {
      check_site_name(faults.outages[i].site, scenario.cluster_count,
                      util::format("%s.outages[%zu].site", faults_path.c_str(), i));
    }
    for (std::size_t i = 0; i < faults.link_loss.size(); ++i) {
      const std::string link_path = util::format("%s.link_loss[%zu]", faults_path.c_str(), i);
      check_site_name(faults.link_loss[i].from, scenario.cluster_count, link_path + ".from");
      check_site_name(faults.link_loss[i].to, scenario.cluster_count, link_path + ".to");
    }
    config.faults = lower_faults(faults, scenario.duration_seconds);
    for (const OffloadSpec& rule : spec.offloads) {
      if (rule.to_site >= scenario.cluster_count ||
          (rule.from_site >= scenario.cluster_count)) {
        throw SpecError(util::format(
            "%s.offloads: site index out of range for %d clusters", variant_path.c_str(),
            scenario.cluster_count));
      }
      testbed::OffloadRule lowered;
      lowered.from_site = rule.from_site;
      lowered.to_site = rule.to_site;
      lowered.fraction = rule.fraction;
      lowered.start = rule.start * scenario.duration_seconds;
      lowered.end = rule.end * scenario.duration_seconds;
      config.offloads.push_back(lowered);
    }

    testbed::SweepVariant sweep_variant;
    sweep_variant.name =
        variant.name.empty() ? spec.name : spec.name + "/" + variant.name;
    sweep_variant.scenario = std::move(scenario);
    sweep_variant.config = std::move(config);

    CompiledVariant meta;
    meta.name = sweep_variant.name;
    meta.duration_seconds = sweep_variant.scenario.duration_seconds;
    meta.lossless = faults.lossless();
    meta.backend = sweep_variant.config.fairshare.backend.name;
    compiled.variants.push_back(std::move(meta));
    compiled.sweep.variants.push_back(std::move(sweep_variant));
  }

  compiled.sweep.replications =
      options.replications > 0 ? options.replications : spec.sweep.replications;
  compiled.sweep.root_seed = spec.sweep.root_seed;
  compiled.sweep.threads = options.threads;
  compiled.sweep.convergence_epsilon = spec.sweep.convergence_epsilon;
  compiled.sweep.keep_results = false;  // metrics/obs/fingerprints survive
  testing::attach_fingerprints(compiled.sweep);
  return compiled;
}

}  // namespace aequus::scenario
