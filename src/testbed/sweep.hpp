// Parallel experiment-sweep engine.
//
// A sweep is the cross product (variant × replication): every variant is
// a named (scenario, config) pair, every replication re-runs it with a
// fresh seed, and every task — one (variant, replication) cell — builds
// its own Experiment so no simulator state is ever shared between
// threads. The per-task seed is a pure function of the sweep's root seed
// and the task index (the task-index-th output of a splitmix64 stream),
// so the set of experiments a sweep runs is identical whether it executes
// on one thread or sixteen. Results land in a preallocated slot per task
// and aggregation walks the slots in task-index order, which makes the
// aggregates — mean, stddev, and 95 % confidence interval per metric —
// bit-identical across thread counts and schedules.
//
// Thread-safety contract for everything a task touches:
//   - the Scenario is shared by const reference and only read;
//   - the ExperimentConfig is copied per task (the seed is overwritten);
//   - the Experiment, Simulator, ServiceBus, and sites are task-local;
//   - optional hooks run on the worker thread but receive a task index,
//     so callers can keep per-task state in preallocated disjoint slots.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "testbed/experiment.hpp"
#include "workload/scenarios.hpp"

namespace aequus::testbed {

struct SweepTaskResult;

/// One named cell of the sweep grid: a scenario plus a config variant.
struct SweepVariant {
  std::string name;
  workload::Scenario scenario;
  ExperimentConfig config{};
};

struct SweepSpec {
  std::vector<SweepVariant> variants;
  std::size_t replications = 1;
  std::uint64_t root_seed = 2014;
  /// Worker threads; 0 resolves via AEQUUS_THREADS, then the hardware.
  int threads = 0;
  /// Keep the full ExperimentResult per task (memory-heavy for big
  /// sweeps; the scalar metrics and aggregates survive either way).
  bool keep_results = true;
  /// Re-derive FaultPlan::seed per task so replications sample different
  /// fault realizations of the same schedule. Outage windows are part of
  /// the schedule and stay fixed.
  bool reseed_faults = true;
  /// Epsilon for the convergence_time_s metric (balance band half-width).
  /// Forwarded into every task's ExperimentConfig so the registry's
  /// "experiment.convergence_time_s" gauge is bit-identical to the scalar
  /// metric (same function, same inputs).
  double convergence_epsilon = 0.05;
  /// When set, each task's result is rendered to a determinism
  /// fingerprint (inject testing::fingerprint via
  /// testing::attach_fingerprints(); the testbed library cannot depend on
  /// the testing library, which depends on it).
  std::function<std::string(const ExperimentResult&)> fingerprinter;
  /// Called on the worker thread right after the task's Experiment is
  /// constructed, before run(). Use the task index to address
  /// preallocated per-task state (e.g. an InvariantChecker slot).
  std::function<void(Experiment&, std::size_t task_index)> on_setup;
  /// Called on the worker thread after the task's slot is fully
  /// populated; may append custom entries to `slot.metrics`, which then
  /// flow into the aggregates like the built-in metrics.
  std::function<void(Experiment&, SweepTaskResult& slot)> on_teardown;

  [[nodiscard]] std::size_t task_count() const noexcept {
    return variants.size() * (replications > 0 ? replications : 1);
  }
};

/// Aggregate statistics of one metric across a variant's replications.
struct MetricSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (n-1)
  double ci95_half = 0.0;  ///< Student-t 95 % half-width of the mean
  double min = 0.0;
  double max = 0.0;
};

struct SweepTaskResult {
  std::size_t task_index = 0;
  std::size_t variant_index = 0;
  std::size_t replication = 0;
  std::uint64_t seed = 0;
  double wall_seconds = 0.0;  ///< host wall clock, excluded from metrics
  std::string fingerprint;    ///< empty unless a fingerprinter is set
  std::map<std::string, double> metrics;
  /// Metrics snapshot of the task's registry; kept even when
  /// keep_results is false (small next to an ExperimentResult).
  obs::Snapshot obs;
  ExperimentResult result;    ///< empty unless spec.keep_results
};

struct SweepResult {
  std::vector<SweepTaskResult> tasks;  ///< task-index order, all tasks
  /// aggregates[variant name][metric name], merged in task-index order.
  std::map<std::string, std::map<std::string, MetricSummary>> aggregates;
  /// obs[variant name]: per-task snapshots merged in task-index order, so
  /// counters/sums are bit-identical across thread counts.
  std::map<std::string, obs::Snapshot> obs;
  double wall_seconds = 0.0;
  int threads_used = 1;

  /// Tasks of one variant, in replication order.
  [[nodiscard]] std::vector<const SweepTaskResult*> tasks_of(std::size_t variant_index) const;
};

/// The task-index-th output of a splitmix64 stream seeded with
/// `root_seed` — stateless, so any task's seed is computable in O(1).
[[nodiscard]] std::uint64_t sweep_task_seed(std::uint64_t root_seed,
                                            std::size_t task_index) noexcept;

/// Thread-count resolution: `requested` > 0 wins, else a positive
/// AEQUUS_THREADS environment value, else std::thread::hardware_concurrency
/// (at least 1).
[[nodiscard]] int resolve_thread_count(int requested);

/// The standard scalar metrics extracted from every task's result.
[[nodiscard]] std::map<std::string, double> scalar_metrics(
    const ExperimentResult& result, const workload::Scenario& scenario,
    double convergence_epsilon = 0.05);

/// Mean / sample stddev / Student-t 95 % CI of `samples` (empty -> zeros).
[[nodiscard]] MetricSummary summarize(const std::vector<double>& samples);

/// The per-variant block of BENCH and scenario reports: for each variant,
/// {"metrics": {<metric>: {count, mean, stddev, ci95_half, min, max}},
///  "obs": <merged registry snapshot, histogram layouts included>}. The
/// "obs" key is omitted for a variant whose snapshot is empty.
[[nodiscard]] json::Value variants_to_json(const SweepResult& result);

/// Run every (variant, replication) task, on `spec.threads` workers, and
/// aggregate. Deterministic in everything except the wall-clock fields.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

/// Cross-product helper: one variant per (scenario, config) pair, named
/// "<scenario name>/<config name>" (or just one part when the other list
/// has a single unnamed entry).
[[nodiscard]] std::vector<SweepVariant> cross_variants(
    const std::vector<std::pair<std::string, workload::Scenario>>& scenarios,
    const std::vector<std::pair<std::string, ExperimentConfig>>& configs);

}  // namespace aequus::testbed
