#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>

#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "testing/invariants.hpp"
#include "util/strings.hpp"

namespace aequus::scenario {

namespace {

/// Per-task gate bookkeeping, preallocated in disjoint slots so the
/// worker threads never contend (the sweep's thread-safety contract).
struct TaskGateState {
  std::uint64_t checks = 0;
  std::size_t tick_violations = 0;
  std::size_t reconvergence_violations = 0;
  std::size_t conservation_violations = 0;
  bool conservation_checked = false;
  bool ingest_dropped = false;  ///< the task's ingest path shed deltas for real
  std::string first_violation;  ///< "invariant @ t: detail" of the first one
};

std::string describe_first(const testing::InvariantChecker& checker) {
  if (checker.violations().empty()) return {};
  const auto& v = checker.violations().front();
  return util::format("%s @ %.1fs: %s", v.invariant.c_str(), v.time, v.detail.c_str());
}

GateResult tally(const std::string& gate, const std::vector<TaskGateState>& states,
                 std::size_t TaskGateState::* counter) {
  GateResult result;
  result.gate = gate;
  std::size_t total = 0;
  std::size_t failing_tasks = 0;
  const std::string* first = nullptr;
  for (const TaskGateState& state : states) {
    const std::size_t count = state.*counter;
    total += count;
    if (count > 0) {
      ++failing_tasks;
      if (!first && !state.first_violation.empty()) first = &state.first_violation;
    }
  }
  result.passed = total == 0;
  result.detail =
      result.passed
          ? util::format("0 violations across %zu tasks", states.size())
          : util::format("%zu violations in %zu/%zu tasks; first: %s", total, failing_tasks,
                         states.size(), first ? first->c_str() : "(truncated)");
  return result;
}

std::string abbreviate(const std::string& fingerprint) {
  return util::format("%016llx",
                      static_cast<unsigned long long>(util::fnv1a64(fingerprint)));
}

}  // namespace

ScenarioReport run_scenario(const CompiledScenario& compiled, const RunOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  const GateSpec& gates = compiled.gates;
  const std::size_t replications =
      compiled.sweep.replications > 0 ? compiled.sweep.replications : 1;

  testbed::SweepSpec spec = compiled.sweep;
  if (options.threads > 0) spec.threads = options.threads;

  const bool want_conservation = gates.conservation != "off";
  const bool want_checker = gates.invariants || gates.reconvergence || want_conservation;

  std::vector<std::unique_ptr<testing::InvariantChecker>> checkers(spec.task_count());
  std::vector<TaskGateState> states(spec.task_count());
  if (want_checker) {
    testing::InvariantOptions invariant_options;
    invariant_options.convergence_tolerance = gates.convergence_tolerance;
    spec.on_setup = [&checkers, invariant_options](testbed::Experiment& experiment,
                                                   std::size_t task_index) {
      checkers[task_index] =
          std::make_unique<testing::InvariantChecker>(experiment, invariant_options);
    };
    spec.on_teardown = [&](testbed::Experiment&, testbed::SweepTaskResult& slot) {
      testing::InvariantChecker& checker = *checkers[slot.task_index];
      TaskGateState& state = states[slot.task_index];
      state.checks = checker.checks_run();
      state.tick_violations = checker.violations().size();
      if (gates.reconvergence) {
        const std::size_t before = checker.violations().size();
        checker.check_reconvergence();
        state.reconvergence_violations = checker.violations().size() - before;
      }
      const std::size_t variant_index = slot.task_index / replications;
      // A variant is only conservation-checkable when neither the fault
      // plan nor the ingest queue lost usage. `ingest.dropped_deltas`
      // counts records *actually shed* (merge-less drop-oldest
      // evictions) — overflow coalescing conserves amounts and does not
      // disqualify the check.
      state.ingest_dropped = slot.obs.counter("ingest.dropped_deltas") > 0;
      const bool lossless = variant_index < compiled.variants.size() &&
                            compiled.variants[variant_index].lossless &&
                            !state.ingest_dropped;
      if (gates.conservation == "on" || (gates.conservation == "auto" && lossless)) {
        const std::size_t before = checker.violations().size();
        checker.check_conservation_final();
        state.conservation_violations = checker.violations().size() - before;
        state.conservation_checked = true;
      }
      state.first_violation = describe_first(checker);
      checkers[slot.task_index].reset();  // the experiment dies with the task
    };
  }

  // Flight recording: tap the sweep's task 0 (first variant, first
  // replication) — one canonical log per scenario. The recorder is only
  // ever touched from task 0's worker thread during the sweep and read
  // after run_sweep returns, so no synchronization is needed.
  const bool want_record = compiled.record.enabled || !options.record_dir.empty();
  replay::FlightRecorder recorder(compiled.record.cap);
  double recorded_bin_width = 0.0;
  if (want_record) {
    auto prior_setup = spec.on_setup;
    spec.on_setup = [&recorder, &recorded_bin_width, prior_setup](
                        testbed::Experiment& experiment, std::size_t task_index) {
      if (prior_setup) prior_setup(experiment, task_index);
      if (task_index == 0) {
        recorded_bin_width = experiment.config().timings.uss_bin_width;
        recorder.attach(experiment.bus(), &experiment.registry());
      }
    };
  }

  ScenarioReport report;
  report.name = compiled.name;
  report.jobs = compiled.jobs;
  report.tasks = spec.task_count();
  report.variants = compiled.variants;
  report.sweep = testbed::run_sweep(spec);

  if (want_record) {
    json::Object meta;
    meta["scenario"] = compiled.name;
    meta["uss_bin_width"] = recorded_bin_width;
    // Seeds are u64: rendered as hex strings (JSON doubles lose bits).
    meta["root_seed"] = util::format(
        "%llx", static_cast<unsigned long long>(compiled.sweep.root_seed));
    replay::EnvelopeLog log = recorder.take_log(json::Value(std::move(meta)));
    // The footer hash is the record-side half of the record->replay
    // bit-identity check: bus_replay recomputes it from the log alone.
    log.fingerprint_hash = replay::BusReplayer().replay(log).fingerprint_hash;
    std::string path = compiled.record.path.empty()
                           ? compiled.name + (compiled.record.format == "jsonl" ? ".jsonl"
                                                                                : ".aeqlog")
                           : compiled.record.path;
    if (!options.record_dir.empty() && path.front() != '/') {
      path = options.record_dir + "/" + path;
    }
    // Create the target directory (--record names a directory that need
    // not exist yet); save_log still reports unwritable paths loudly.
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    replay::save_log(path, log,
                     compiled.record.format == "jsonl" ? replay::LogFormat::kJsonl
                                                       : replay::LogFormat::kBinary);
    report.record.enabled = true;
    report.record.path = path;
    report.record.envelopes = log.envelopes.size();
    report.record.recorder_dropped = log.recorder_dropped;
    report.record.fingerprint_hash = log.fingerprint_hash;
  }
  report.threads = report.sweep.threads_used;
  for (const auto& task : report.sweep.tasks) {
    report.fingerprints.push_back(abbreviate(task.fingerprint));
  }

  if (gates.invariants) {
    GateResult gate = tally("invariants", states, &TaskGateState::tick_violations);
    std::uint64_t checks = 0;
    for (const TaskGateState& state : states) checks += state.checks;
    if (gate.passed) {
      gate.detail = util::format("0 violations in %llu tick checks across %zu tasks",
                                 static_cast<unsigned long long>(checks), states.size());
    }
    report.gates.push_back(std::move(gate));
  }
  if (gates.reconvergence) {
    report.gates.push_back(
        tally("reconvergence", states, &TaskGateState::reconvergence_violations));
  }
  if (want_conservation) {
    GateResult gate =
        tally("conservation", states, &TaskGateState::conservation_violations);
    const bool any_checked =
        std::any_of(states.begin(), states.end(),
                    [](const TaskGateState& s) { return s.conservation_checked; });
    const bool any_ingest_dropped =
        std::any_of(states.begin(), states.end(),
                    [](const TaskGateState& s) { return s.ingest_dropped; });
    if (!any_checked) {
      gate.detail = any_ingest_dropped
                        ? "skipped: ingest shed deltas (conservation=auto)"
                        : "skipped: fault plan is lossy (conservation=auto)";
    }
    report.gates.push_back(std::move(gate));
  }

  if (gates.determinism && options.determinism) {
    testbed::SweepSpec recheck = compiled.sweep;  // no hooks: fingerprints only
    recheck.threads = report.sweep.threads_used == options.alternate_threads
                          ? 1
                          : options.alternate_threads;
    const testbed::SweepResult rerun = testbed::run_sweep(recheck);
    GateResult gate;
    gate.gate = "determinism";
    gate.passed = rerun.tasks.size() == report.sweep.tasks.size();
    std::size_t mismatch = report.sweep.tasks.size();
    for (std::size_t i = 0; gate.passed && i < rerun.tasks.size(); ++i) {
      if (rerun.tasks[i].fingerprint != report.sweep.tasks[i].fingerprint) {
        gate.passed = false;
        mismatch = i;
      }
    }
    gate.detail =
        gate.passed
            ? util::format("%zu fingerprints identical at %d vs %d threads",
                           report.sweep.tasks.size(), report.sweep.threads_used,
                           rerun.threads_used)
            : util::format("fingerprint mismatch at task %zu (%d vs %d threads)", mismatch,
                           report.sweep.threads_used, rerun.threads_used);
    report.gates.push_back(std::move(gate));
  }

  for (const GateResult& gate : report.gates) report.passed = report.passed && gate.passed;
  report.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return report;
}

json::Value report_to_json(const ScenarioReport& report) {
  json::Object out;
  out["name"] = report.name;
  out["jobs"] = report.jobs;
  out["tasks"] = report.tasks;
  out["threads"] = report.threads;
  out["wall_seconds"] = report.wall_seconds;
  out["passed"] = report.passed;

  json::Array gates;
  for (const GateResult& gate : report.gates) {
    json::Object entry;
    entry["gate"] = gate.gate;
    entry["passed"] = gate.passed;
    entry["detail"] = gate.detail;
    gates.push_back(json::Value(std::move(entry)));
  }
  out["gates"] = json::Value(std::move(gates));

  out["variants"] = testbed::variants_to_json(report.sweep);

  // Head-to-head comparison table (DESIGN.md §6j): one row per variant
  // with its resolved fairness backend and the faceoff columns —
  // fairness distance (mean |share - target|), starvation count,
  // throughput, and the per-delta-delivery RPC latency observed at the
  // FCS (mean over every rpc.<site>.fcs.latency_s histogram; 0 when the
  // bus recorded no FCS traffic). Scalar columns are replication means.
  if (!report.variants.empty()) {
    json::Array comparison;
    for (const CompiledVariant& variant : report.variants) {
      json::Object row;
      row["variant"] = variant.name;
      row["backend"] = variant.backend;
      const auto aggregates = report.sweep.aggregates.find(variant.name);
      const auto mean_of = [&](const char* metric) {
        if (aggregates == report.sweep.aggregates.end()) return 0.0;
        const auto it = aggregates->second.find(metric);
        return it != aggregates->second.end() ? it->second.mean : 0.0;
      };
      row["fairness_distance"] = mean_of("fairness_distance");
      row["starved_jobs"] = mean_of("starved_jobs");
      row["throughput_jobs_per_h"] = mean_of("throughput_jobs_per_h");
      row["max_share_error"] = mean_of("max_share_error");
      double latency_sum = 0.0;
      std::uint64_t latency_count = 0;
      const auto obs = report.sweep.obs.find(variant.name);
      if (obs != report.sweep.obs.end()) {
        for (const auto& [key, histogram] : obs->second.histograms) {
          if (util::starts_with(key, "rpc.") && util::ends_with(key, ".fcs.latency_s")) {
            latency_sum += histogram.sum;
            latency_count += histogram.count;
          }
        }
      }
      row["delta_latency_ms"] =
          latency_count > 0 ? latency_sum / static_cast<double>(latency_count) * 1e3 : 0.0;
      comparison.push_back(json::Value(std::move(row)));
    }
    out["comparison"] = json::Value(std::move(comparison));
  }

  json::Array fingerprints;
  for (const std::string& fp : report.fingerprints) fingerprints.push_back(json::Value(fp));
  out["fingerprints"] = json::Value(std::move(fingerprints));

  if (report.record.enabled) {
    json::Object record;
    record["path"] = report.record.path;
    record["envelopes"] = report.record.envelopes;
    record["recorder_dropped"] = report.record.recorder_dropped;
    record["fingerprint_hash"] = report.record.fingerprint_hash;
    out["record"] = json::Value(std::move(record));
  }
  return json::Value(std::move(out));
}

json::Value catalog_report_json(const std::vector<ScenarioReport>& reports,
                                double wall_seconds) {
  json::Object out;
  out["schema"] = "aequus-scenario-report-v1";
  bool passed = true;
  json::Array scenarios;
  for (const ScenarioReport& report : reports) {
    passed = passed && report.passed;
    scenarios.push_back(report_to_json(report));
  }
  out["passed"] = passed;
  out["wall_seconds"] = wall_seconds;
  out["scenarios"] = json::Value(std::move(scenarios));
  return json::Value(std::move(out));
}

}  // namespace aequus::scenario
