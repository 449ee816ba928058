// scenario_run: compile and execute declarative scenario specs with
// invariant gates, emitting the aequus-scenario-report-v1 JSON document.
//
// Usage:
//   scenario_run [options] [spec ...]
//
// Each spec is a path to a .json file or a bare catalog name
// (`fig10_baseline` resolves to <catalog>/fig10_baseline.json). With no
// specs the whole shipped catalog runs (scenarios/*.json; override the
// directory with --catalog DIR or $AEQUUS_SCENARIO_DIR).
//
// Options:
//   --list               list catalog specs and exit
//   --catalog DIR        use DIR instead of the built-in catalog path
//   --jobs-scale F       multiply every spec's job count by F
//   --max-jobs N         cap the post-scale job count
//   --time-scale F       extra time compression folded into variant scales
//   --threads N          sweep threads for the primary run
//   --backend NAME       force the fairness backend (aequus | balanced |
//                        credit) on every loaded spec, overriding its
//                        fairness: key and any variant overlay
//   --reps N             override every spec's replication count
//   --no-determinism     skip the dual-threaded determinism gate
//   --json FILE          write the report document to FILE ("-" = stdout)
//   --record DIR         force-enable flight recording; envelope logs land
//                        in DIR (see src/replay and tools/bus_replay)
//   --metrics FILE       dump the merged obs registry snapshots as an
//                        aequus-metrics-dump-v1 document ("-" = stdout)
//
// Numeric values must parse in full: "--max-jobs 80x0" is a usage error.
// Each scenario prints its gate results, then the report's comparison
// rows (one per variant: backend, fairness distance, starvation,
// throughput, share error, FCS delta latency).
//
// $AEQUUS_SCENARIO_SCALE (a fraction) multiplies jobs-scale and
// time-scale on top of the flags, so CI can compress a full catalog run
// without touching the invocation.
//
// Exit status: 0 all gates passed, 1 a gate failed, 2 usage/spec error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "scenario/catalog.hpp"
#include "scenario/runner.hpp"
#include "util/strings.hpp"

using namespace aequus;

namespace {

struct CliArgs {
  std::vector<std::string> specs;
  std::string catalog;
  std::string json_path;
  std::string metrics_path;
  std::string backend;  ///< non-empty: force this fairness backend
  scenario::CompileOptions compile;
  scenario::RunOptions run;
  bool list = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--catalog DIR] [--jobs-scale F] [--max-jobs N]\n"
               "          [--time-scale F] [--threads N] [--reps N] [--backend NAME]\n"
               "          [--no-determinism] [--json FILE] [--record DIR]\n"
               "          [--metrics FILE] [spec.json ...]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, CliArgs& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    unsigned threads = 0;
    if (arg == "--list") args.list = true;
    else if (arg == "--catalog") args.catalog = value();
    else if (arg == "--jobs-scale") {
      if (!util::parse_number(arg, value(), args.compile.jobs_scale)) return false;
    } else if (arg == "--max-jobs") {
      if (!util::parse_number(arg, value(), args.compile.max_jobs)) return false;
    } else if (arg == "--time-scale") {
      if (!util::parse_number(arg, value(), args.compile.time_scale)) return false;
    } else if (arg == "--threads") {
      if (!util::parse_number(arg, value(), threads)) return false;
      args.run.threads = static_cast<int>(threads);
    } else if (arg == "--reps") {
      if (!util::parse_number(arg, value(), args.compile.replications)) return false;
    } else if (arg == "--backend") {
      args.backend = value();
    } else if (arg == "--no-determinism") {
      args.run.determinism = false;
    } else if (arg == "--json") {
      args.json_path = value();
    } else if (arg == "--record") {
      args.run.record_dir = value();
    } else if (arg == "--metrics") {
      args.metrics_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      args.specs.push_back(arg);
    }
  }
  if (!(args.compile.jobs_scale > 0.0) || !(args.compile.time_scale > 0.0)) {
    std::fprintf(stderr, "--jobs-scale and --time-scale must be > 0\n");
    return false;
  }
  return true;
}

/// The aequus-metrics-dump-v1 document: merged per-variant registry
/// snapshots keyed "<scenario>/<variant>" (validated by
/// bench_gate.py --validate-metrics-dump).
json::Value metrics_dump_json(const std::vector<scenario::ScenarioReport>& reports) {
  json::Object snapshots;
  for (const scenario::ScenarioReport& report : reports) {
    for (const auto& [variant, snapshot] : report.sweep.obs) {
      snapshots[report.name + "/" + variant] = snapshot.to_json();
    }
  }
  json::Object out;
  out["schema"] = "aequus-metrics-dump-v1";
  out["source"] = "scenario_run";
  out["snapshots"] = json::Value(std::move(snapshots));
  return json::Value(std::move(out));
}

/// Drop a fairshare.backend overlay from an experiment-config object so a
/// --backend override is not shadowed by the spec's own overlays (the
/// spec-level fairness key sits *below* them in the merge order).
void strip_backend_overlay(json::Value& experiment) {
  if (!experiment.is_object()) return;
  json::Object& object = experiment.as_object();
  const auto fairshare = object.find("fairshare");
  if (fairshare == object.end() || !fairshare->second.is_object()) return;
  fairshare->second.as_object().erase("backend");
}

/// Apply --backend NAME: retarget the spec's fairness selection and strip
/// competing overlays, so every variant runs the forced backend.
void force_backend(scenario::ScenarioSpec& spec, const std::string& backend) {
  spec.fairness.name = backend;
  strip_backend_overlay(spec.experiment);
  for (scenario::VariantSpec& variant : spec.variants) {
    strip_backend_overlay(variant.experiment);
  }
}

/// The report's head-to-head "comparison" rows (DESIGN.md §6j), one per
/// variant, printed under the scenario's gate lines.
void print_comparison(const json::Value& entry) {
  const auto rows = entry.find("comparison");
  if (!rows) return;
  std::printf("   %-28s %-9s %17s %12s %18s %15s %16s\n", "variant", "backend",
              "fairness_distance", "starved_jobs", "throughput(jobs/h)", "max_share_error",
              "delta_latency_ms");
  for (const json::Value& row : rows->get().as_array()) {
    std::printf("   %-28s %-9s %17.5f %12.1f %18.1f %15.5f %16.3f\n",
                row.at("variant").as_string().c_str(), row.at("backend").as_string().c_str(),
                row.at("fairness_distance").as_number(), row.at("starved_jobs").as_number(),
                row.at("throughput_jobs_per_h").as_number(),
                row.at("max_share_error").as_number(), row.at("delta_latency_ms").as_number());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  std::vector<std::string> paths;
  paths.reserve(args.specs.size());
  for (const std::string& spec : args.specs) {
    paths.push_back(scenario::resolve_spec(spec, args.catalog));
  }
  if (paths.empty()) {
    paths = scenario::list_catalog(args.catalog);
    if (paths.empty()) {
      std::fprintf(stderr, "no specs given and no catalog found at '%s'\n",
                   (args.catalog.empty() ? scenario::catalog_dir() : args.catalog).c_str());
      return 2;
    }
  }

  if (args.list) {
    for (const std::string& path : paths) {
      try {
        const scenario::ScenarioSpec spec = scenario::load_spec_file(path);
        std::printf("%-24s %s\n", spec.name.c_str(), spec.description.c_str());
      } catch (const scenario::SpecError& error) {
        std::printf("%-24s INVALID: %s\n", path.c_str(), error.what());
      }
    }
    return 0;
  }

  scenario::apply_env_scale(args.compile);

  if (!args.backend.empty() && !core::fairness_backend_known(args.backend)) {
    std::fprintf(stderr, "--backend: unknown fairness backend '%s'\n", args.backend.c_str());
    return 2;
  }

  std::vector<scenario::ScenarioReport> reports;
  double wall = 0.0;
  for (const std::string& path : paths) {
    try {
      scenario::ScenarioSpec spec = scenario::load_spec_file(path);
      if (!args.backend.empty()) force_backend(spec, args.backend);
      const scenario::CompiledScenario compiled = scenario::compile(spec, args.compile);
      std::printf("== %s: %zu jobs x %zu task(s)...\n", compiled.name.c_str(), compiled.jobs,
                  compiled.sweep.task_count());
      std::fflush(stdout);
      scenario::ScenarioReport report = scenario::run_scenario(compiled, args.run);
      for (const scenario::GateResult& gate : report.gates) {
        std::printf("   [%s] %-14s %s\n", gate.passed ? "PASS" : "FAIL", gate.gate.c_str(),
                    gate.detail.c_str());
      }
      print_comparison(scenario::report_to_json(report));
      if (report.record.enabled) {
        std::printf("   recorded %llu envelope(s) -> %s (fingerprint %s)\n",
                    static_cast<unsigned long long>(report.record.envelopes),
                    report.record.path.c_str(), report.record.fingerprint_hash.c_str());
      }
      std::printf("   %s in %.2f s wall (%d threads)\n", report.passed ? "ok" : "FAILED",
                  report.wall_seconds, report.threads);
      wall += report.wall_seconds;
      reports.push_back(std::move(report));
    } catch (const scenario::SpecError& error) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.what());
      return 2;
    } catch (const std::exception& error) {  // e.g. an unwritable record log
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.what());
      return 2;
    }
  }

  const json::Value document = scenario::catalog_report_json(reports, wall);
  if (!args.json_path.empty()) {
    if (args.json_path == "-") {
      std::printf("%s\n", document.pretty().c_str());
    } else {
      std::ofstream out(args.json_path);
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", args.json_path.c_str());
        return 2;
      }
      out << document.pretty() << "\n";
      std::printf("report written to %s\n", args.json_path.c_str());
    }
  }

  if (!args.metrics_path.empty()) {
    const json::Value dump = metrics_dump_json(reports);
    if (args.metrics_path == "-") {
      std::printf("%s\n", dump.pretty().c_str());
    } else {
      std::ofstream out(args.metrics_path);
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", args.metrics_path.c_str());
        return 2;
      }
      out << dump.pretty() << "\n";
      std::printf("metrics dump written to %s\n", args.metrics_path.c_str());
    }
  }

  bool passed = true;
  for (const scenario::ScenarioReport& report : reports) passed = passed && report.passed;
  std::printf("%zu scenario(s), %s, %.2f s total\n", reports.size(),
              passed ? "all gates passed" : "GATE FAILURES", wall);
  return passed ? 0 : 1;
}
