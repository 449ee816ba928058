// Flight-recorder replay throughput bench: envelopes/sec replayed vs
// simulated (DESIGN.md §6i).
//
// Records one full testbed run of the baseline scenario with the
// FlightRecorder tapped into the bus, then replays the captured log
// through the offline USS/engine stack — timed (preserve-spacing, the
// bit-exact mode) and as-fast-as-possible — `reps` times, taking the
// minimum wall per mode. The headline ratio speedup_replay_vs_simulated
// (simulated wall / timed-replay wall) is gated one-sided by
// tools/bench_gate.py: replay skips job scheduling, host simulation, and
// RM bookkeeping, so it must stay well faster than the run it replays.
// Absolute envelope rates are emitted ungated (machine-specific).
//
// Replay determinism is a hard failure, not a metric: every timed replay
// must produce the same fingerprint hash, or the bench exits 1.
//
//   bench_replay_throughput [jobs] [--reps N] [--seed S] [--json-dir DIR]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common.hpp"
#include "json/json.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"

using namespace aequus;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Flight-recorder replay throughput",
                      "DESIGN.md 6i; envelopes/sec replayed vs simulated");
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 800, 3);
  const std::size_t reps = args.replications > 0 ? args.replications : 3;

  const workload::Scenario scenario = workload::baseline_scenario(args.root_seed, args.jobs);
  std::printf("recording: baseline scenario, %zu jobs, %.0f simulated seconds\n",
              scenario.trace.size(), scenario.duration_seconds);

  // Record one full simulated run with the recorder tapped into its bus.
  replay::FlightRecorder recorder(0);  // unbounded: the bench wants every envelope
  testbed::Experiment experiment(scenario, testbed::ExperimentConfig{});
  recorder.attach(experiment.bus(), &experiment.registry());
  const auto sim_start = std::chrono::steady_clock::now();
  (void)experiment.run();
  const double sim_seconds = seconds_since(sim_start);
  json::Object meta;
  meta["scenario"] = std::string("bench_replay_throughput");
  meta["uss_bin_width"] = experiment.config().timings.uss_bin_width;
  const replay::EnvelopeLog log = recorder.take_log(json::Value(std::move(meta)));
  const double envelopes = static_cast<double>(log.envelopes.size());
  if (log.envelopes.empty()) {
    std::fprintf(stderr, "error: the recorded run produced no envelopes\n");
    return 1;
  }
  std::printf("recorded %zu envelope(s) in %.3f s simulated-run wall (%.0f env/s)\n\n",
              log.envelopes.size(), sim_seconds, envelopes / sim_seconds);

  // Timed replay: the bit-exact mode. Identical fingerprints across reps
  // is a hard correctness requirement, not a gated metric.
  double timed_seconds = std::numeric_limits<double>::infinity();
  std::string fingerprint_hash;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const replay::ReplayResult result = replay::BusReplayer().replay(log);
    timed_seconds = std::min(timed_seconds, result.wall_seconds);
    if (rep == 0) {
      fingerprint_hash = result.fingerprint_hash;
    } else if (result.fingerprint_hash != fingerprint_hash) {
      std::fprintf(stderr, "error: timed replay fingerprint diverged across reps (%s vs %s)\n",
                   result.fingerprint_hash.c_str(), fingerprint_hash.c_str());
      return 1;
    }
  }

  double afap_seconds = std::numeric_limits<double>::infinity();
  replay::ReplayOptions afap;
  afap.preserve_spacing = false;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const replay::ReplayResult result = replay::BusReplayer(afap).replay(log);
    afap_seconds = std::min(afap_seconds, result.wall_seconds);
  }

  const double sim_rate = envelopes / sim_seconds;
  const double timed_rate = envelopes / timed_seconds;
  const double afap_rate = envelopes / afap_seconds;
  const double speedup = sim_seconds / timed_seconds;
  std::printf("simulated run  %10.0f env/s  (%.4f s)\n", sim_rate, sim_seconds);
  std::printf("timed replay   %10.0f env/s  (%.4f s, min of %zu)  fingerprint %s\n",
              timed_rate, timed_seconds, reps, fingerprint_hash.c_str());
  std::printf("afap replay    %10.0f env/s  (%.4f s, min of %zu)\n", afap_rate, afap_seconds,
              reps);
  std::printf("replay speedup vs simulated: %.1fx\n\n", speedup);

  json::Object metrics;
  const auto metric = [&metrics](const std::string& name, double mean) {
    json::Object summary;
    summary["count"] = 1;
    summary["mean"] = mean;
    metrics[name] = json::Value(std::move(summary));
  };
  metric("sim_envelopes_per_sec", sim_rate);
  metric("replay_envelopes_per_sec", timed_rate);
  metric("afap_envelopes_per_sec", afap_rate);
  metric("speedup_replay_vs_simulated", speedup);
  metric("envelopes", envelopes);

  json::Object variant;
  variant["metrics"] = json::Value(std::move(metrics));
  json::Object variants;
  variants["replay"] = json::Value(std::move(variant));
  json::Object body;
  body["variants"] = json::Value(std::move(variants));
  return bench::write_bench_file(args.json_dir,
                                 {"replay_throughput", args.jobs, 1, reps, args.root_seed,
                                  sim_seconds + timed_seconds + afap_seconds},
                                 std::move(body))
             ? 0
             : 1;
}
