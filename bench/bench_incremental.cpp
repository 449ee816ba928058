// Incremental-engine speedup bench: per-delta cost of the stateful
// FairshareEngine (dirty-path recompute + snapshot publish) against a
// whole-tree recompute per delta (FairshareEngine::compute_once), on the
// fig10 shape (six clusters x 40 users). Also measures the overhead of
// compute_once() — a throwaway engine — against the frozen pre-engine
// recursion (testing::reference_annotate), pinning the "one-shot callers
// pay (almost) nothing for the engine" contract.
//
// All timings are min-over-rounds (--reps, default 5): the minimum is
// the least noisy location statistic for a cold-cache-free micro timing.
// Emits BENCH_incremental.json; the two ratio metrics are gated
// one-sided by tools/bench_gate.py (speedup floor, overhead ceiling) —
// ratios of wall times on the same machine are comparable across hosts
// in a way the absolute microseconds are not.
//
// A second mode drives the arena-engine scale rows (DESIGN.md §6h):
//
//   bench_incremental --leaves N[,N...] [deltas] [--reps N] ...
//
// builds an N-leaf tree per requested size (the fig10 shape stretched —
// wide sibling fans are exactly where the SoA arenas pay off), replays
// the identical delta stream through the frozen map-backed engine
// (testing::ReferenceMapEngine) and the arena engine, checks the two
// checksums agree bitwise, and emits BM_-style per-size rows into
// BENCH_incremental_scale.json with the arena-vs-map speedup gated by
// its own baseline. Without --leaves the classic fig10 report is
// emitted unchanged.
//
//   bench_incremental [deltas] [--reps N] [--seed S] [--json-dir DIR]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "json/json.hpp"
#include "testing/reference_engine.hpp"
#include "util/rng.hpp"

using namespace aequus;

namespace {

constexpr std::size_t kClusters = 6;
constexpr std::size_t kUsersPerCluster = 40;

std::string user_path(std::size_t cluster, std::size_t user) {
  return "/grid/cluster" + std::to_string(cluster) + "/user" + std::to_string(user);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Delta {
  std::string path;
  double amount = 0.0;
};

/// "10k" / "100k" / "1m" for the variant keys and BM_ row labels.
std::string size_label(std::size_t leaves) {
  if (leaves >= 1000000 && leaves % 1000000 == 0)
    return std::to_string(leaves / 1000000) + "m";
  if (leaves >= 1000 && leaves % 1000 == 0) return std::to_string(leaves / 1000) + "k";
  return std::to_string(leaves);
}

void write_report(const std::string& bench_name, const bench::BenchArgs& args,
                  std::size_t deltas, std::size_t rounds, double wall_seconds,
                  json::Object variants) {
  json::Object body;
  body["variants"] = json::Value(std::move(variants));
  if (!bench::write_bench_file(args.json_dir,
                               {bench_name, deltas, 1, rounds, args.root_seed, wall_seconds},
                               std::move(body))) {
    std::exit(1);
  }
}

/// Arena-vs-map scale rows: one variant per requested leaf count, the
/// same delta stream through both engines, speedup = map time / arena
/// time. Exits nonzero if the engines' checksums ever diverge — the
/// bench doubles as a coarse differential check at sizes the property
/// test cannot afford.
int run_scale_bench(const bench::BenchArgs& args, const std::vector<std::size_t>& sizes) {
  const std::size_t deltas = args.jobs;
  const std::size_t rounds = args.replications;
  json::Object variants;
  double wall = 0.0;

  for (const std::size_t target : sizes) {
    // Three levels of ~cbrt(n) siblings (site -> cluster -> user): the
    // realistic shape for very large populations, and the one where a
    // usage delta's dirty path stays narrow — a flat million-wide fan
    // would make *every* update O(n) in snapshot-node copies for any
    // engine, measuring allocator throughput instead of the engines.
    const std::size_t fan = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::lround(std::cbrt(static_cast<double>(target)))));
    const std::size_t users = std::max<std::size_t>(1, target / (fan * fan));
    const std::size_t leaves = fan * fan * users;
    const auto leaf_path = [](std::size_t s, std::size_t c, std::size_t u) {
      return "/grid/site" + std::to_string(s) + "/cluster" + std::to_string(c) + "/user" +
             std::to_string(u);
    };
    std::printf(
        "-- %s leaves (%zu sites x %zu clusters x %zu users), %zu deltas/round, %zu rounds\n",
        size_label(target).c_str(), fan, fan, users, deltas, rounds);

    util::Rng rng(args.root_seed);
    core::PolicyTree policy;
    core::UsageTree initial_usage;
    for (std::size_t s = 0; s < fan; ++s) {
      for (std::size_t c = 0; c < fan; ++c) {
        for (std::size_t u = 0; u < users; ++u) {
          const std::string path = leaf_path(s, c, u);
          policy.set_share(path, 1.0 + static_cast<double>(u % 7));
          initial_usage.add(path, rng.uniform(1.0, 1000.0));
        }
      }
    }
    std::vector<Delta> stream(deltas);
    for (auto& delta : stream) {
      delta.path = leaf_path(static_cast<std::size_t>(rng.uniform_int(0, fan - 1)),
                             static_cast<std::size_t>(rng.uniform_int(0, fan - 1)),
                             static_cast<std::size_t>(rng.uniform_int(0, users - 1)));
      delta.amount = rng.uniform(0.5, 50.0);
    }

    const core::DecayConfig decay{core::DecayKind::kNone, 0.0, 0.0};
    // Setup (policy/usage sync + first publish) is once per engine and
    // untimed; the rounds re-run only the delta loop, so the min is a
    // warm-state per-delta figure on both sides.
    testing::ReferenceMapEngine map_engine({}, decay);
    map_engine.set_policy(policy);
    map_engine.set_usage(initial_usage);
    (void)map_engine.snapshot();
    double map_seconds = std::numeric_limits<double>::infinity();
    double map_sink = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const auto start = std::chrono::steady_clock::now();
      for (const Delta& delta : stream) {
        map_engine.apply_usage(delta.path, delta.amount, 0.0);
        // The root's distance is pinned to 0 and /grid holds all usage
        // (its distance is identically 0 too); probe the first cluster so
        // the checksum actually witnesses the recompute.
        map_sink += map_engine.snapshot()->root().children.front()->children.front()->distance;
      }
      map_seconds = std::min(map_seconds, seconds_since(start));
    }

    core::FairshareEngine arena_engine({}, decay);
    arena_engine.set_policy(policy);
    arena_engine.set_usage(initial_usage);
    (void)arena_engine.snapshot();
    double arena_seconds = std::numeric_limits<double>::infinity();
    double arena_sink = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const auto start = std::chrono::steady_clock::now();
      for (const Delta& delta : stream) {
        arena_engine.apply_usage(delta.path, delta.amount, 0.0);
        arena_sink +=
            arena_engine.snapshot()->root().children.front()->children.front()->distance;
      }
      arena_seconds = std::min(arena_seconds, seconds_since(start));
    }

    if (map_sink != arena_sink) {
      std::fprintf(stderr, "FAIL: engines diverged at %zu leaves (%.17g vs %.17g)\n",
                   leaves, map_sink, arena_sink);
      return 1;
    }

    const std::string label = size_label(target);
    const double map_us = 1e6 * map_seconds / static_cast<double>(deltas);
    const double arena_us = 1e6 * arena_seconds / static_cast<double>(deltas);
    const double speedup = map_us / arena_us;
    std::printf("BM_map_delta/%-6s %12.2f us\n", label.c_str(), map_us);
    std::printf("BM_arena_delta/%-4s %12.2f us\n", label.c_str(), arena_us);
    std::printf("BM_speedup/%-8s %12.2fx   (checksum %.6g)\n\n", label.c_str(), speedup,
                arena_sink);
    wall += map_seconds + arena_seconds;

    json::Object metrics;
    const auto metric = [&metrics](const std::string& name, double mean) {
      json::Object summary;
      summary["count"] = 1;
      summary["mean"] = mean;
      metrics[name] = json::Value(std::move(summary));
    };
    metric("map_engine_us_per_delta", map_us);
    metric("arena_engine_us_per_delta", arena_us);
    metric("speedup_arena_vs_map", speedup);
    json::Object variant;
    variant["metrics"] = json::Value(std::move(metrics));
    variants["engine_" + label] = json::Value(std::move(variant));
  }

  write_report("incremental_scale", args, deltas, rounds, wall, std::move(variants));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --leaves N[,N...] selects the scale mode; peeled off before the
  // shared parser (which rejects flags it does not know). Each size
  // parses in full, like every other bench value.
  std::vector<std::size_t> scale_sizes;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--leaves" && i + 1 < argc) {
      for (const std::string& item : util::split(argv[++i], ',')) {
        std::size_t leaves = 0;
        if (!util::parse_number("--leaves", item.c_str(), leaves)) {
          std::fprintf(stderr, "usage: %s --leaves N[,N...] [deltas] [--reps N] ...\n",
                       argv[0]);
          return 2;
        }
        scale_sizes.push_back(leaves);
      }
    } else {
      filtered.push_back(argv[i]);
    }
  }

  bench::print_banner("Incremental engine: per-delta cost vs whole-tree recompute",
                      "engine rework; fig10 tree shape (6 clusters x 40 users)");
  const bench::BenchArgs args = bench::parse_bench_args(
      static_cast<int>(filtered.size()), filtered.data(), 240, 5);
  if (!scale_sizes.empty()) return run_scale_bench(args, scale_sizes);
  const std::size_t deltas = args.jobs;
  const std::size_t rounds = args.replications;

  core::PolicyTree policy;
  util::Rng rng(args.root_seed);
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t u = 0; u < kUsersPerCluster; ++u) {
      policy.set_share(user_path(c, u), 1.0 + static_cast<double>(u % 7));
    }
  }
  core::UsageTree initial_usage;
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t u = 0; u < kUsersPerCluster; ++u) {
      initial_usage.add(user_path(c, u), rng.uniform(1.0, 1000.0));
    }
  }
  std::vector<Delta> stream(deltas);
  for (auto& delta : stream) {
    delta.path = user_path(static_cast<std::size_t>(rng.uniform_int(0, kClusters - 1)),
                           static_cast<std::size_t>(rng.uniform_int(0, kUsersPerCluster - 1)));
    delta.amount = rng.uniform(0.5, 50.0);
  }
  std::printf("tree: %zu leaves, %zu deltas/round, %zu rounds (min taken)\n\n",
              kClusters * kUsersPerCluster, deltas, rounds);

  const core::FairshareAlgorithm algorithm;
  double sink = 0.0;  // consumed below so the loops cannot be elided

  // 1) Whole-tree recompute per delta: what every FairshareTable update
  //    cost before the engine.
  double full_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    core::UsageTree usage = initial_usage;
    const auto start = std::chrono::steady_clock::now();
    for (const Delta& delta : stream) {
      usage.add(delta.path, delta.amount);
      sink += core::FairshareEngine::compute_once(algorithm.config(), policy, usage)
                  ->root()
                  .distance;
    }
    full_seconds = std::min(full_seconds, seconds_since(start));
  }

  // 2) Incremental: one apply_usage() + snapshot() per delta. kNone decay
  //    keeps the two sides arithmetically identical per step.
  double incremental_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    core::FairshareEngine engine({}, core::DecayConfig{core::DecayKind::kNone, 0.0, 0.0});
    engine.set_policy(policy);
    engine.set_usage(initial_usage);
    (void)engine.snapshot();
    const auto start = std::chrono::steady_clock::now();
    for (const Delta& delta : stream) {
      engine.apply_usage(delta.path, delta.amount, 0.0);
      sink += engine.snapshot()->root().distance;
    }
    incremental_seconds = std::min(incremental_seconds, seconds_since(start));
  }

  // 3) One-shot overhead: compute_once() (throwaway engine) against the
  //    frozen original recursion, both doing the identical one-shot job.
  const std::size_t batch_iterations = std::max<std::size_t>(deltas / 4, 16);
  double wrapper_seconds = std::numeric_limits<double>::infinity();
  double reference_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch_iterations; ++i) {
      sink += core::FairshareEngine::compute_once(algorithm.config(), policy,
                                                  initial_usage)
                  ->root()
                  .distance;
    }
    wrapper_seconds = std::min(wrapper_seconds, seconds_since(start));

    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch_iterations; ++i) {
      sink += testing::reference_annotate(algorithm.config(), policy, initial_usage)
                  ->root()
                  .distance;
    }
    reference_seconds = std::min(reference_seconds, seconds_since(start));
  }

  const double full_us = 1e6 * full_seconds / static_cast<double>(deltas);
  const double incremental_us = 1e6 * incremental_seconds / static_cast<double>(deltas);
  const double speedup = full_us / incremental_us;
  const double overhead = wrapper_seconds / reference_seconds;
  std::printf("whole-tree recompute per delta: %9.2f us\n", full_us);
  std::printf("incremental engine per delta:   %9.2f us\n", incremental_us);
  std::printf("speedup (incremental vs full):  %9.2fx   (gate floor: 12.5x)\n", speedup);
  std::printf("compute_once vs original:       %9.4fx   (gate ceiling: 1.02x)\n", overhead);
  std::printf("(checksum %.6g)\n\n", sink);

  json::Object metrics;
  const auto metric = [&metrics](const std::string& name, double mean) {
    json::Object summary;
    summary["count"] = 1;
    summary["mean"] = mean;
    metrics[name] = json::Value(std::move(summary));
  };
  metric("full_recompute_us_per_delta", full_us);
  metric("incremental_us_per_delta", incremental_us);
  metric("speedup_incremental_vs_full", speedup);
  metric("wrapper_overhead_vs_reference", overhead);

  json::Object variant;
  variant["metrics"] = json::Value(std::move(metrics));
  json::Object variants;
  variants["incremental"] = json::Value(std::move(variant));

  write_report("incremental", args, deltas, rounds,
               full_seconds + incremental_seconds + wrapper_seconds + reference_seconds,
               std::move(variants));
  return 0;
}
