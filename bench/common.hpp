// Shared helpers for the benchmark harnesses.
//
// The evaluation pipeline is the same in most benches: synthesize the
// "historical" national trace from the paper's models, run the paper's
// cleanup filters, partition by user, and (for the modeling benches) fit
// candidate distributions. Scaled-down sizes are chosen so every bench
// finishes in minutes on a laptop; pass a positive integer argv[1] to a
// bench to override the job count. The testbed benches compile their
// experiment from the scenario catalog (compile_catalog) and keep only
// their analysis and printing.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "scenario/compile.hpp"
#include "testbed/experiment.hpp"
#include "testbed/sweep.hpp"
#include "util/strings.hpp"
#include "workload/generator.hpp"
#include "workload/national_model.hpp"
#include "workload/scenarios.hpp"

namespace aequus::bench {

/// Default sizes of the modeling benches, tuned for bench runtime (the
/// statistical results are insensitive to them). The testbed benches
/// default to their catalog spec's workload.jobs.
inline constexpr std::size_t kYearTraceJobs = 40000;
inline constexpr std::size_t kFitSubsample = 3000;

/// Parse the optional job-count argv[1] (0 keeps `fallback`). Anything
/// else — a malformed count ("80x0"), a negative one, a second argument —
/// prints the usage line and exits 2.
[[nodiscard]] std::size_t jobs_from_argv(int argc, char** argv, std::size_t fallback);

/// Command-line options shared by the testbed and ratio benches:
///   bench [jobs] [--threads N] [--reps N] [--seed S] [--json-dir DIR]
///         [--trace FILE] [--trace-cap N]
/// `--threads 0` (the default) defers to AEQUUS_THREADS, then to the
/// hardware; a job count or `--reps` of 0 keeps the bench default.
/// Values parse in full (util::parse_number; --seed also takes the
/// 0x... form BENCH files record): a malformed value, a flag without its
/// value, or an unknown flag prints the usage line and exits 2.
struct BenchArgs {
  std::size_t jobs = 0;
  int threads = 0;               ///< 0 = auto (AEQUUS_THREADS / hardware)
  std::size_t replications = 0;  ///< 0 = bench default
  std::uint64_t root_seed = 2014;
  bool root_seed_given = false;  ///< --seed was passed (overrides a catalog spec's seed)
  std::string json_dir = ".";
  /// --trace FILE: enable the tracer on each variant's first replication
  /// and write the first task's event stream to FILE as JSON-lines.
  std::string trace_path;
  /// --trace-cap N: tracer ring-buffer capacity for traced tasks (events;
  /// 0 = unbounded). Evictions land in the trace.dropped_events counter.
  std::size_t trace_cap = 1u << 19;
};
[[nodiscard]] BenchArgs parse_bench_args(int argc, char** argv, std::size_t fallback_jobs,
                                         std::size_t fallback_replications);

/// The catalog spec `name` (scenarios/<name>.json) lowered at the bench's
/// size: a job count replaces the spec's workload.jobs (0 keeps it),
/// --reps and --seed override the spec's sweep settings only when given,
/// and --threads picks the worker count. Per-task results are kept for
/// the charts, and --trace enables tracing on each variant's first
/// replication (a bench that installs its own on_setup chains this one).
/// The spec, not the bench, defines the experiment.
[[nodiscard]] scenario::CompiledScenario compile_catalog(const std::string& name,
                                                         const BenchArgs& args);

/// Run `spec` between two progress lines (task count and threads before,
/// wall time after).
[[nodiscard]] testbed::SweepResult run_with_progress(const testbed::SweepSpec& spec);

/// The shared output flags of a finished catalog sweep, honoured the same
/// way by every testbed bench. With --trace: write the first traced
/// task's events to the trace file as JSON-lines, and print each
/// variant's per-hop delay decomposition from the causal span trees (the
/// hop rows partition the summed complete-chain durations; a mismatch is
/// flagged loudly). Then write BENCH_<spec name>.json into --json-dir:
/// the header (with the job count that ran), the per-variant aggregates
/// and merged obs snapshots (testbed::variants_to_json), per-task seeds +
/// fingerprint hashes, and the trace scalars as extras:
///   trace.<variant>.complete_chains / broken_chains / dropped_events
///   trace.<variant>.<chain>.mean_s  (mean complete-chain duration)
void write_outputs(const BenchArgs& args, const scenario::CompiledScenario& compiled,
                   const testbed::SweepResult& result);

/// Render the per-variant aggregate table (mean +- 95 % CI per metric).
void print_aggregates(const testbed::SweepResult& result);

/// The fields every BENCH_<name>.json report starts with.
struct BenchHeader {
  std::string bench;
  std::size_t jobs = 0;
  int threads = 1;
  std::size_t replications = 0;
  std::uint64_t root_seed = 0;
  double wall_seconds = 0.0;
};

/// Write BENCH_<header.bench>.json into `json_dir` (created if missing):
/// the header fields, schema_version 1, and `body`'s entries. This is the
/// machine-readable record tools/bench_gate.py reads. Returns false,
/// after a warning, when the file cannot be written.
bool write_bench_file(const std::string& json_dir, const BenchHeader& header,
                      json::Object body);

/// The raw "historical" year trace: paper user mix plus injected
/// admin/monitoring (~15 % of records) and zero-duration jobs, matching
/// the share the paper removed prior to modeling.
[[nodiscard]] workload::Trace raw_year_trace(std::size_t jobs = kYearTraceJobs,
                                             std::uint64_t seed = 2012);

/// Subsample `data` to at most `limit` elements (deterministic).
[[nodiscard]] std::vector<double> subsample(const std::vector<double>& data, std::size_t limit,
                                            std::uint64_t seed = 7);

/// Partition U65 arrival times into the four phases (quarter boundaries).
[[nodiscard]] std::vector<std::vector<double>> split_u65_phases(
    const std::vector<double>& arrivals, double window_seconds);

/// Round a seconds value to whole seconds, as the paper's medians are
/// ("the time stamps from the original trace are limited to second
/// accuracy").
[[nodiscard]] long whole_seconds(double seconds);

/// Pretty banner for bench output.
void print_banner(const std::string& title, const std::string& paper_reference);

}  // namespace aequus::bench
