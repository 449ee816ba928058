#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "json/json.hpp"
#include "obs/span_analysis.hpp"
#include "obs/trace.hpp"
#include "scenario/catalog.hpp"
#include "util/rng.hpp"

namespace aequus::bench {

namespace {

[[noreturn]] void usage_exit(const char* argv0, const char* options) {
  std::fprintf(stderr, "usage: %s [jobs]%s\n", argv0, options);
  std::exit(2);
}

constexpr const char* kBenchOptions =
    " [--threads N] [--reps N] [--seed S] [--json-dir DIR]\n"
    "       [--trace FILE] [--trace-cap N]";

/// A seed takes C's integer prefixes, as strtoull(text, nullptr, 0) does
/// ("0x7de" hex, "010" octal), so the root_seed a BENCH file records
/// reproduces the run; the rest of the value must parse in full.
bool parse_seed(const char* text, std::uint64_t& out) {
  std::string_view digits = text;
  int base = 10;
  if (digits.size() > 1 && digits[0] == '0') {
    const bool hex = digits[1] == 'x' || digits[1] == 'X';
    digits.remove_prefix(hex ? 2 : 1);
    base = hex ? 16 : 8;
  }
  const char* end = digits.data() + digits.size();
  const auto [stop, error] = std::from_chars(digits.data(), end, out, base);
  if (error == std::errc{} && stop == end && !digits.empty()) return true;
  std::fprintf(stderr, "--seed: invalid number '%s'\n", text);
  return false;
}

}  // namespace

std::size_t jobs_from_argv(int argc, char** argv, std::size_t fallback) {
  std::size_t jobs = 0;
  if (argc > 2 || (argc == 2 && !util::parse_number("jobs", argv[1], jobs))) {
    usage_exit(argv[0], "");
  }
  return jobs > 0 ? jobs : fallback;
}

BenchArgs parse_bench_args(int argc, char** argv, std::size_t fallback_jobs,
                           std::size_t fallback_replications) {
  BenchArgs args;
  args.jobs = fallback_jobs;
  args.replications = fallback_replications;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value\n", arg.c_str());
        usage_exit(argv[0], kBenchOptions);
      }
      return argv[++i];
    };
    const auto number = [&](const std::string& flag, const char* text, auto& out) {
      if (!util::parse_number(flag, text, out)) usage_exit(argv[0], kBenchOptions);
    };
    std::size_t count = 0;
    unsigned threads = 0;
    if (arg == "--threads") {
      number(arg, value(), threads);
      args.threads = static_cast<int>(threads);
    } else if (arg == "--reps") {
      number(arg, value(), count);
      if (count > 0) args.replications = count;
    } else if (arg == "--seed") {
      if (!parse_seed(value(), args.root_seed)) usage_exit(argv[0], kBenchOptions);
      args.root_seed_given = true;
    } else if (arg == "--json-dir") {
      args.json_dir = value();
    } else if (arg == "--trace") {
      args.trace_path = value();
    } else if (arg == "--trace-cap") {
      number(arg, value(), args.trace_cap);
    } else if (arg.empty() || arg[0] != '-') {
      number("jobs", arg.c_str(), count);
      if (count > 0) args.jobs = count;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage_exit(argv[0], kBenchOptions);
    }
  }
  return args;
}

scenario::CompiledScenario compile_catalog(const std::string& name, const BenchArgs& args) {
  scenario::ScenarioSpec catalog_spec =
      scenario::load_spec_file(scenario::catalog_dir() + "/" + name + ".json");
  if (args.jobs > 0) catalog_spec.workload.jobs = args.jobs;
  scenario::CompileOptions options;
  options.replications = args.replications;
  options.threads = args.threads;
  scenario::CompiledScenario compiled = scenario::compile(catalog_spec, options);
  testbed::SweepSpec& spec = compiled.sweep;
  if (args.root_seed_given) spec.root_seed = args.root_seed;
  spec.keep_results = true;  // compile() attached the fingerprinter
  // --trace: trace each variant's first replication (tasks are
  // variant-major, so that is task_index % replications == 0); tracing
  // every replication would multiply the buffers for no analytical gain.
  // The ring cap bounds memory on long runs — evictions show up as
  // trace.dropped_events and as unmatched ends in the analysis.
  if (!args.trace_path.empty()) {
    const std::size_t replications = spec.replications > 0 ? spec.replications : 1;
    const std::size_t cap = args.trace_cap;
    spec.on_setup = [replications, cap](testbed::Experiment& experiment,
                                        std::size_t task_index) {
      if (task_index % replications == 0) {
        experiment.tracer().set_capacity(cap);
        experiment.tracer().enable();
      }
    };
  }
  return compiled;
}

testbed::SweepResult run_with_progress(const testbed::SweepSpec& spec) {
  std::printf("sweep: %zu variant(s) x %zu replication(s) on %d thread(s)...\n",
              spec.variants.size(), spec.replications,
              testbed::resolve_thread_count(spec.threads));
  testbed::SweepResult result = testbed::run_sweep(spec);
  std::printf("sweep done in %.2f s wall\n\n", result.wall_seconds);
  return result;
}

namespace {

/// --trace: the first traced task's events, as JSON-lines.
void write_trace(const BenchArgs& args, const testbed::SweepResult& result) {
  if (args.trace_path.empty()) return;
  const auto traced = std::find_if(result.tasks.begin(), result.tasks.end(),
                                   [](const auto& task) { return !task.result.trace.empty(); });
  if (traced == result.tasks.end()) {
    std::fprintf(stderr,
                 "warning: no trace events collected (does a bench on_setup skip "
                 "compile_catalog's?)\n");
    return;
  }
  std::error_code ec;  // best effort; open reports failure
  std::filesystem::create_directories(std::filesystem::path(args.trace_path).parent_path(), ec);
  std::ofstream out(args.trace_path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.trace_path.c_str());
    return;
  }
  obs::write_jsonl(out, traced->result.trace);
  std::printf("wrote %zu trace events to %s\n", traced->result.trace.size(),
              args.trace_path.c_str());
}

/// --trace: each variant's per-hop delay decomposition (obs::analyze_spans
/// on its traced replication), printed; returns the BENCH extras.
std::map<std::string, double> report_trace_analysis(const BenchArgs& args,
                                                    const testbed::SweepSpec& spec,
                                                    const testbed::SweepResult& result) {
  std::map<std::string, double> extra;
  if (args.trace_path.empty()) return extra;
  for (std::size_t variant_index = 0; variant_index < spec.variants.size(); ++variant_index) {
    const std::string& variant = spec.variants[variant_index].name;
    const testbed::SweepTaskResult* traced = nullptr;
    for (const auto* task : result.tasks_of(variant_index)) {
      if (!task->result.trace.empty()) {
        traced = task;
        break;
      }
    }
    if (traced == nullptr) continue;
    const obs::TraceAnalysis analysis = obs::analyze_spans(traced->result.trace);
    std::printf("per-hop delay decomposition, variant %s (replication %zu, %zu spans):\n",
                variant.c_str(), traced->replication, analysis.spans.size());
    std::size_t complete_chains = 0;
    for (const auto& [chain, stats] : analysis.chains) {
      complete_chains += stats.complete;
      if (stats.complete == 0 && stats.broken == 0) continue;
      std::printf("  chain %-20s %7zu complete %5zu broken   mean %10.4f s\n", chain.c_str(),
                  stats.complete, stats.broken, stats.mean_duration());
      double hop_sum = 0.0;
      for (const auto& [hop, self] : stats.hop_self_time) {
        hop_sum += self;
        const double share =
            stats.total_duration > 0.0 ? 100.0 * self / stats.total_duration : 0.0;
        std::printf("    %-24s %7zu spans  %12.4f s self  %5.1f%%\n", hop.c_str(),
                    stats.hop_spans.count(hop) ? stats.hop_spans.at(hop) : 0, self, share);
      }
      // Strict-partition identity: the hop rows repartition the summed
      // complete-chain durations, so they must add back up (within float
      // accumulation error). A violation means the analyzer and tracer
      // disagree about the span tree — worth shouting about.
      const double tolerance = 1e-6 * std::max(1.0, stats.total_duration);
      if (std::fabs(hop_sum - stats.total_duration) > tolerance) {
        std::fprintf(stderr,
                     "warning: variant %s chain %s: hop self times sum to %.9f s "
                     "but complete chains total %.9f s\n",
                     variant.c_str(), chain.c_str(), hop_sum, stats.total_duration);
      }
      extra["trace." + variant + "." + chain + ".mean_s"] = stats.mean_duration();
    }
    if (analysis.orphan_spans > 0 || analysis.retry_storms > 0 ||
        analysis.duplicate_ends > 0 || analysis.unmatched_ends > 0) {
      std::printf("  anomalies: %zu orphan spans, %zu retry storms, %zu duplicate ends, "
                  "%zu unmatched ends\n",
                  analysis.orphan_spans, analysis.retry_storms, analysis.duplicate_ends,
                  analysis.unmatched_ends);
    }
    extra["trace." + variant + ".complete_chains"] = static_cast<double>(complete_chains);
    extra["trace." + variant + ".broken_chains"] = static_cast<double>(analysis.broken_chains);
    extra["trace." + variant + ".dropped_events"] =
        static_cast<double>(traced->obs.counter("trace.dropped_events"));
  }
  if (!extra.empty()) std::printf("\n");
  return extra;
}

}  // namespace

void print_aggregates(const testbed::SweepResult& result) {
  for (const auto& [variant, metrics] : result.aggregates) {
    std::printf("variant %s (n=%zu):\n", variant.c_str(),
                metrics.empty() ? 0 : metrics.begin()->second.count);
    for (const auto& [metric, summary] : metrics) {
      std::printf("  %-24s %12.4f +- %-10.4f [%.4f, %.4f]\n", metric.c_str(), summary.mean,
                  summary.ci95_half, summary.min, summary.max);
    }
  }
  std::printf("\n");
}

bool write_bench_file(const std::string& json_dir, const BenchHeader& header,
                      json::Object body) {
  body["bench"] = header.bench;
  body["schema_version"] = 1;
  body["jobs"] = header.jobs;
  body["threads"] = header.threads;
  body["replications"] = header.replications;
  body["root_seed"] =
      util::format("0x%llx", static_cast<unsigned long long>(header.root_seed));
  body["wall_seconds"] = header.wall_seconds;

  const std::string path = json_dir + "/BENCH_" + header.bench + ".json";
  std::error_code ec;
  std::filesystem::create_directories(json_dir, ec);  // best effort; open reports failure
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << json::Value(std::move(body)).pretty() << "\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void write_outputs(const BenchArgs& args, const scenario::CompiledScenario& compiled,
                   const testbed::SweepResult& result) {
  const testbed::SweepSpec& spec = compiled.sweep;
  write_trace(args, result);
  json::Object body;
  json::Object extras;
  for (const auto& [key, value] : report_trace_analysis(args, spec, result)) extras[key] = value;
  body["extra"] = json::Value(std::move(extras));

  body["variants"] = testbed::variants_to_json(result);

  json::Array tasks;
  for (const auto& task : result.tasks) {
    json::Object t;
    t["variant"] = spec.variants[task.variant_index].name;
    t["replication"] = task.replication;
    t["seed"] = util::format("0x%llx", static_cast<unsigned long long>(task.seed));
    t["wall_seconds"] = task.wall_seconds;
    if (!task.fingerprint.empty()) {
      t["fingerprint_hash"] = util::format(
          "0x%016llx", static_cast<unsigned long long>(util::fnv1a64(task.fingerprint)));
    }
    tasks.push_back(json::Value(std::move(t)));
  }
  body["tasks"] = json::Value(std::move(tasks));
  (void)write_bench_file(args.json_dir,
                         {compiled.name, compiled.jobs, result.threads_used, spec.replications,
                          spec.root_seed, result.wall_seconds},
                         std::move(body));
}

workload::Trace raw_year_trace(std::size_t jobs, std::uint64_t seed) {
  const auto model = workload::NationalGridModel::paper_2012();
  workload::GeneratorConfig config;
  config.total_jobs = jobs;
  config.seed = seed;
  // Extra records on top of the regular jobs: tuned so the cleanup removes
  // ~15 % of records carrying ~1.5 % of usage (§IV-1).
  config.admin_job_fraction = 0.150;
  config.zero_duration_fraction = 0.027;
  config.admin_duration_lo = 600.0;
  config.admin_duration_hi = 21600.0;
  return workload::generate_trace(model, config);
}

std::vector<double> subsample(const std::vector<double>& data, std::size_t limit,
                              std::uint64_t seed) {
  if (data.size() <= limit) return data;
  util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(limit);
  // Stride sampling with random phase keeps the subsample spread evenly.
  const double stride = static_cast<double>(data.size()) / static_cast<double>(limit);
  double position = rng.uniform() * stride;
  for (std::size_t i = 0; i < limit; ++i) {
    out.push_back(data[static_cast<std::size_t>(position) % data.size()]);
    position += stride;
  }
  return out;
}

std::vector<std::vector<double>> split_u65_phases(const std::vector<double>& arrivals,
                                                  double window_seconds) {
  std::vector<std::vector<double>> phases(4);
  for (double t : arrivals) {
    auto index = static_cast<std::size_t>(t / (window_seconds / 4.0));
    if (index > 3) index = 3;
    phases[index].push_back(t);
  }
  return phases;
}

long whole_seconds(double seconds) {
  return std::lround(seconds);
}

void print_banner(const std::string& title, const std::string& paper_reference) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace aequus::bench
