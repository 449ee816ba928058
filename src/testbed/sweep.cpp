#include "testbed/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <thread>

#include "testbed/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace aequus::testbed {

namespace {

/// Two-sided 95 % Student-t critical values, indexed by degrees of
/// freedom 1..30; larger samples use the normal limit.
constexpr double kT95[] = {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
                           2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                           2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
                           2.060,  2.056, 2.052, 2.048, 2.045, 2.042};

double t95(std::size_t degrees_of_freedom) {
  if (degrees_of_freedom == 0) return 0.0;
  if (degrees_of_freedom <= 30) return kT95[degrees_of_freedom - 1];
  return 1.960;
}

/// Salt separating the fault-plan seed stream from the experiment seed
/// stream (both derive from the same per-task seed).
constexpr std::uint64_t kFaultSeedSalt = 0xfa171u;

}  // namespace

std::uint64_t sweep_task_seed(std::uint64_t root_seed, std::size_t task_index) noexcept {
  // splitmix64 advances its state by the golden gamma per draw, so seeding
  // the state `task_index` gammas ahead and taking one output equals the
  // task_index-th draw of the stream — without generating the prefix.
  std::uint64_t state = root_seed + static_cast<std::uint64_t>(task_index) * 0x9e3779b97f4a7c15ULL;
  return util::splitmix64(state);
}

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("AEQUUS_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

MetricSummary summarize(const std::vector<double>& samples) {
  MetricSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  summary.min = *std::min_element(samples.begin(), samples.end());
  summary.max = *std::max_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  summary.mean = sum / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double squares = 0.0;
    for (const double v : samples) squares += (v - summary.mean) * (v - summary.mean);
    summary.stddev = std::sqrt(squares / static_cast<double>(samples.size() - 1));
    summary.ci95_half =
        t95(samples.size() - 1) * summary.stddev / std::sqrt(static_cast<double>(samples.size()));
  }
  return summary;
}

std::map<std::string, double> scalar_metrics(const ExperimentResult& result,
                                             const workload::Scenario& scenario,
                                             double convergence_epsilon) {
  std::map<std::string, double> metrics;
  metrics["jobs_submitted"] = static_cast<double>(result.jobs_submitted);
  metrics["jobs_completed"] = static_cast<double>(result.jobs_completed);
  metrics["completion_ratio"] =
      result.jobs_submitted > 0
          ? static_cast<double>(result.jobs_completed) / static_cast<double>(result.jobs_submitted)
          : 0.0;
  metrics["mean_utilization"] = result.mean_utilization;
  metrics["makespan_s"] = result.makespan;
  const double convergence =
      result.priority_convergence_time(convergence_epsilon, scenario.duration_seconds);
  metrics["convergence_time_s"] = convergence;
  metrics["converged"] = convergence >= 0.0 ? 1.0 : 0.0;
  metrics["sustained_rate_per_min"] = result.rates.sustained_per_minute;
  metrics["peak_rate_per_min"] = result.rates.peak_per_minute;

  // Final-share accuracy against the scenario's realized shares (the
  // paper's convergence targets) or, failing those, the policy targets.
  const auto& targets =
      !scenario.usage_shares.empty() ? scenario.usage_shares : scenario.policy_shares;
  double worst = 0.0;
  for (const auto& [user, target] : targets) {
    const auto it = result.final_usage_share.find(user);
    const double measured = it != result.final_usage_share.end() ? it->second : 0.0;
    worst = std::max(worst, std::fabs(measured - target));
  }
  metrics["max_share_error"] = worst;
  // Run-averaged mean absolute share deviation from the *policy* targets
  // — the backend-faceoff "fairness distance" column (lower is fairer).
  // Two deliberate differences from max_share_error: the policy targets
  // are kept even when they disagree with the realized demand (the
  // nonoptimal-policy workloads — that gap is exactly what the fairness
  // policies differ on), and the deviation is averaged over every usage
  // sample of the run rather than read once at the end (once every job
  // has completed, the final cumulative share equals the trace
  // composition for any scheduling order; the trajectory does not).
  const auto& fairness_targets =
      !scenario.policy_shares.empty() ? scenario.policy_shares : targets;
  double distance_sum = 0.0;
  std::size_t distance_samples = 0;
  for (const auto& [user, target] : fairness_targets) {
    const auto it = result.usage_shares.all().find(user);
    if (it == result.usage_shares.all().end()) continue;
    for (const double share : it->second.values()) {
      distance_sum += std::fabs(share - target);
      ++distance_samples;
    }
  }
  metrics["fairness_distance"] =
      distance_samples > 0 ? distance_sum / static_cast<double>(distance_samples) : 0.0;

  // Starvation: a started job whose queue wait exceeded 5 % of the
  // scenario window. The threshold is a fraction of the (scaled) run so
  // the count is comparable across time-compressed CI variants.
  const double starvation_threshold = 0.05 * scenario.duration_seconds;
  double wait_sum = 0.0;
  std::size_t wait_count = 0;
  std::size_t starved = 0;
  for (const auto& [user, series] : result.waits.all()) {
    (void)user;
    for (const double w : series.values()) {
      wait_sum += w;
      if (starvation_threshold > 0.0 && w > starvation_threshold) ++starved;
    }
    wait_count += series.size();
  }
  metrics["mean_wait_s"] = wait_count > 0 ? wait_sum / static_cast<double>(wait_count) : 0.0;
  metrics["starved_jobs"] = static_cast<double>(starved);
  metrics["throughput_jobs_per_h"] =
      result.makespan > 0.0
          ? static_cast<double>(result.jobs_completed) / result.makespan * 3600.0
          : 0.0;

  metrics["bus_requests"] = static_cast<double>(result.bus.requests);
  metrics["bus_dropped"] =
      static_cast<double>(result.bus.dropped_participation + result.bus.dropped_unbound +
                          result.bus.dropped_loss + result.bus.dropped_outage);
  metrics["bus_payload_bytes"] = static_cast<double>(result.bus.payload_bytes);
  return metrics;
}

json::Value variants_to_json(const SweepResult& result) {
  json::Object variants;
  for (const auto& [variant, metrics] : result.aggregates) {
    json::Object metric_obj;
    for (const auto& [metric, summary] : metrics) {
      json::Object cell;
      cell["count"] = summary.count;
      cell["mean"] = summary.mean;
      cell["stddev"] = summary.stddev;
      cell["ci95_half"] = summary.ci95_half;
      cell["min"] = summary.min;
      cell["max"] = summary.max;
      metric_obj[metric] = json::Value(std::move(cell));
    }
    json::Object variant_obj;
    variant_obj["metrics"] = json::Value(std::move(metric_obj));
    // Histogram bucket layouts are the source of truth tools/trace_analyze
    // --report and bench_gate.py read histogram bounds from.
    const auto obs = result.obs.find(variant);
    if (obs != result.obs.end() && !obs->second.empty()) {
      variant_obj["obs"] = obs->second.to_json();
    }
    variants[variant] = json::Value(std::move(variant_obj));
  }
  return json::Value(std::move(variants));
}

std::vector<const SweepTaskResult*> SweepResult::tasks_of(std::size_t variant_index) const {
  std::vector<const SweepTaskResult*> selected;
  for (const auto& task : tasks) {
    if (task.variant_index == variant_index) selected.push_back(&task);
  }
  return selected;
}

std::vector<SweepVariant> cross_variants(
    const std::vector<std::pair<std::string, workload::Scenario>>& scenarios,
    const std::vector<std::pair<std::string, ExperimentConfig>>& configs) {
  std::vector<SweepVariant> variants;
  for (const auto& [scenario_name, scenario] : scenarios) {
    for (const auto& [config_name, config] : configs) {
      SweepVariant variant;
      if (scenario_name.empty() || config_name.empty()) {
        variant.name = scenario_name.empty() ? config_name : scenario_name;
      } else {
        variant.name = scenario_name + "/" + config_name;
      }
      if (variant.name.empty()) variant.name = "default";
      variant.scenario = scenario;
      variant.config = config;
      variants.push_back(std::move(variant));
    }
  }
  return variants;
}

SweepResult run_sweep(const SweepSpec& spec) {
  using Clock = std::chrono::steady_clock;
  const std::size_t replications = spec.replications > 0 ? spec.replications : 1;
  const std::size_t task_count = spec.variants.size() * replications;

  SweepResult out;
  out.threads_used = resolve_thread_count(spec.threads);
  out.tasks.resize(task_count);

  const auto sweep_start = Clock::now();
  {
    // Never spawn more workers than tasks; extra threads would only idle.
    util::ThreadPool pool(
        std::min<std::size_t>(static_cast<std::size_t>(out.threads_used), std::max<std::size_t>(task_count, 1)));
    std::vector<std::future<void>> futures;
    futures.reserve(task_count);
    for (std::size_t index = 0; index < task_count; ++index) {
      futures.push_back(pool.submit([&spec, &out, index, replications] {
        const std::size_t variant_index = index / replications;
        const SweepVariant& variant = spec.variants[variant_index];

        SweepTaskResult& slot = out.tasks[index];
        slot.task_index = index;
        slot.variant_index = variant_index;
        slot.replication = index % replications;
        slot.seed = sweep_task_seed(spec.root_seed, index);

        ExperimentConfig config = variant.config;  // task-local copy
        config.seed = slot.seed;
        config.convergence_epsilon = spec.convergence_epsilon;
        if (spec.reseed_faults && config.faults.active()) {
          std::uint64_t fault_state = slot.seed ^ kFaultSeedSalt;
          config.faults.seed = util::splitmix64(fault_state);
        }

        const auto task_start = Clock::now();
        Experiment experiment(variant.scenario, std::move(config));
        if (spec.on_setup) spec.on_setup(experiment, index);
        ExperimentResult result = experiment.run();
        slot.wall_seconds = std::chrono::duration<double>(Clock::now() - task_start).count();

        if (spec.fingerprinter) slot.fingerprint = spec.fingerprinter(result);
        slot.metrics = scalar_metrics(result, variant.scenario, spec.convergence_epsilon);
        slot.obs = result.obs;  // survives even when the result is dropped
        if (spec.keep_results) slot.result = std::move(result);
        if (spec.on_teardown) spec.on_teardown(experiment, slot);
      }));
    }
    // get() rethrows the first task failure on the calling thread.
    for (auto& future : futures) future.get();
  }
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - sweep_start).count();

  // Aggregation walks the preallocated slots in task-index order, so the
  // result is independent of which worker finished when.
  std::map<std::string, std::map<std::string, std::vector<double>>> samples;
  for (const auto& task : out.tasks) {
    const std::string& variant_name = spec.variants[task.variant_index].name;
    for (const auto& [metric, value] : task.metrics) {
      samples[variant_name][metric].push_back(value);
    }
    out.obs[variant_name].merge(task.obs);
  }
  for (const auto& [variant_name, metrics] : samples) {
    for (const auto& [metric, values] : metrics) {
      out.aggregates[variant_name][metric] = summarize(values);
    }
  }
  return out;
}

}  // namespace aequus::testbed
