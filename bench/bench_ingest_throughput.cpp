// Streaming-ingestion throughput bench: sustained usage-report
// completions/sec through the per-RPC path (one bus envelope per job
// completion) against the batched delta-log pipeline (bounded queue +
// coalescing batcher + one sequence-numbered envelope per cadence tick),
// at 6, 60, and 600 sites (DESIGN.md §6g).
//
// Each variant drives the same deterministic completion stream into live
// USS instances over the service bus, advancing simulated time alongside
// the stream so flush cadences fire realistically; the measured quantity
// is wall-clock completions/sec of the whole pipeline (producer call,
// queueing/coalescing, bus delivery, histogram application). Per-site
// load is held constant across site counts — this is a sustained-rate
// bench, so a 100x larger grid carries 100x the total stream — and the
// delta log flushes at histogram granularity, where coalescing does its
// work. The headline ratios speedup_batched_vs_rpc_<S>sites are gated
// one-sided by tools/bench_gate.py (floor 5x at 60 sites) — wall-time
// ratios on the same machine transfer across hosts, the absolute rates
// do not.
//
//   bench_ingest_throughput [completions-per-6-sites] [--reps N] [--seed S] [--json-dir DIR]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ingest/batcher.hpp"
#include "json/json.hpp"
#include "net/service_bus.hpp"
#include "services/uss.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace aequus;

namespace {

constexpr double kStreamSeconds = 600.0;  ///< simulated window the stream spans
constexpr double kBinWidth = 60.0;
constexpr std::size_t kUsersPerSite = 20;

struct Completion {
  std::size_t site = 0;
  std::string user;
  double time = 0.0;
  double amount = 0.0;
};

std::vector<Completion> make_stream(std::size_t count, std::size_t sites, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Completion> stream(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& record = stream[i];
    // Monotone times: a live RM reports completions as they happen.
    record.time = kStreamSeconds * static_cast<double>(i) / static_cast<double>(count);
    record.site = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(sites) - 1));
    record.user = "U" + std::to_string(rng() % kUsersPerSite);
    record.amount = rng.uniform(0.5, 120.0);
  }
  return stream;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// One full pipeline pass; returns the wall seconds spent streaming +
/// draining. `batched` selects the delta-log path; per-RPC otherwise.
double run_pipeline(const std::vector<Completion>& stream, std::size_t sites, bool batched,
                    double& usage_sink) {
  sim::Simulator simulator;
  net::ServiceBus bus{simulator};
  services::UssConfig uss_config;
  uss_config.bin_width = kBinWidth;
  std::vector<std::unique_ptr<services::Uss>> stores;
  stores.reserve(sites);
  std::vector<std::string> names(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    names[s] = "site" + std::to_string(s);
    stores.push_back(std::make_unique<services::Uss>(simulator, bus, names[s], uss_config));
  }
  std::vector<std::unique_ptr<ingest::DeltaLog>> logs;
  if (batched) {
    ingest::IngestConfig config;
    config.enabled = true;
    // Flush at histogram granularity: shorter cadences fragment the
    // 60 s bins across envelopes and coalescing merges nothing.
    config.batch_interval = kBinWidth;
    config.bin_width = kBinWidth;
    logs.reserve(sites);
    for (std::size_t s = 0; s < sites; ++s) {
      logs.push_back(std::make_unique<ingest::DeltaLog>(simulator, bus, names[s],
                                                        names[s] + ".uss", config));
    }
  }

  const auto start = std::chrono::steady_clock::now();
  for (const Completion& record : stream) {
    if (record.time > simulator.now()) simulator.run_until(record.time);
    if (batched) {
      logs[record.site]->append(record.user, record.amount);
    } else {
      json::Object envelope;
      envelope["op"] = "report";
      envelope["user"] = record.user;
      envelope["usage"] = record.amount;
      bus.send(names[record.site], names[record.site] + ".uss",
               json::Value(std::move(envelope)));
    }
  }
  // Drain: one cadence past the stream plus delivery latency.
  simulator.run_until(kStreamSeconds + 30.0);
  const double elapsed = seconds_since(start);

  // Conservation is checked on usage mass, not record counts: coalescing
  // legitimately merges same-(user,bin) records, but every core-second of
  // the stream must reach a histogram.
  double expected = 0.0;
  for (const Completion& record : stream) expected += record.amount;
  double recorded = 0.0;
  for (const auto& store : stores) {
    for (const auto& [user, bins] : store->histograms()) {
      (void)user;
      for (const auto& [bin, amount] : bins) {
        (void)bin;
        recorded += amount;
      }
    }
  }
  usage_sink += recorded;
  if (std::abs(recorded - expected) > 1e-6 * expected) {
    std::fprintf(stderr, "error: pipeline lost usage (%.6f of %.6f core-seconds arrived)\n",
                 recorded, expected);
    std::exit(1);
  }
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Streaming ingestion: batched delta-log vs per-RPC reporting",
                      "DESIGN.md 6g; serving-scale completion rates at 6/60/600 sites");
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 12000, 3);
  const std::size_t per_site = std::max<std::size_t>(1, args.jobs / 6);
  const std::size_t rounds = args.replications;
  const std::size_t site_counts[] = {6, 60, 600};
  std::printf("%zu completions/site over %.0f simulated seconds, %zu rounds (min taken)\n\n",
              per_site, kStreamSeconds, rounds);

  double sink = 0.0;
  json::Object variants;
  double wall_total = 0.0;
  json::Object metrics;
  const auto metric = [&metrics](const std::string& name, double mean) {
    json::Object summary;
    summary["count"] = 1;
    summary["mean"] = mean;
    metrics[name] = json::Value(std::move(summary));
  };

  for (const std::size_t sites : site_counts) {
    const std::size_t completions = per_site * sites;
    const std::vector<Completion> stream =
        make_stream(completions, sites, args.root_seed ^ sites);
    double rpc_seconds = std::numeric_limits<double>::infinity();
    double batched_seconds = std::numeric_limits<double>::infinity();
    for (std::size_t round = 0; round < rounds; ++round) {
      rpc_seconds = std::min(rpc_seconds, run_pipeline(stream, sites, false, sink));
      batched_seconds = std::min(batched_seconds, run_pipeline(stream, sites, true, sink));
    }
    wall_total += rpc_seconds + batched_seconds;
    const double rpc_rate = static_cast<double>(completions) / rpc_seconds;
    const double batched_rate = static_cast<double>(completions) / batched_seconds;
    const double speedup = batched_rate / rpc_rate;
    std::printf("%4zu sites: per-RPC %10.0f compl/s   batched %10.0f compl/s   %6.2fx\n",
                sites, rpc_rate, batched_rate, speedup);
    const std::string suffix = std::to_string(sites) + "sites";
    metric("rpc_completions_per_sec_" + suffix, rpc_rate);
    metric("batched_completions_per_sec_" + suffix, batched_rate);
    metric("speedup_batched_vs_rpc_" + suffix, speedup);
  }
  std::printf("(usage checksum %.3f core-seconds)\n\n", sink);

  json::Object variant;
  variant["metrics"] = json::Value(std::move(metrics));
  variants["ingest"] = json::Value(std::move(variant));

  json::Object body;
  body["variants"] = json::Value(std::move(variants));
  return bench::write_bench_file(
             args.json_dir,
             {"ingest_throughput", args.jobs, 1, rounds, args.root_seed, wall_total},
             std::move(body))
             ? 0
             : 1;
}
