// JSON configuration for testbed experiments.
//
// An experiment spec bundles the workload scenario selection with the
// ExperimentConfig knobs, enabling config-file-driven runs (see
// examples/run_experiment):
//
//   {
//     "scenario": "baseline" | "nonoptimal-policy" | "bursty",
//     "jobs": 43200, "seed": 2012,
//     "dispatch": "stochastic" | "round-robin",
//     "timings": {"service_update_interval": 30, "client_cache_ttl": 30,
//                 "reprioritize_interval": 30, "uss_bin_width": 600},
//     "fairshare": {"decay": {...}, "algorithm": {...}, "projection": {...}},
//     "sample_interval": 60, "seed_rng": 7, "record_per_site": false,
//     "sites": {"4": {"contributes": false}, "5": {"reads_global": false,
//               "rm": "maui"}}
//   }
#pragma once

#include "json/decode.hpp"
#include "json/json.hpp"
#include "testbed/experiment.hpp"
#include "workload/scenarios.hpp"

/// json::decode<workload::Scenario> support: builds the scenario named by
/// the spec ("baseline", "nonoptimal-policy", or "bursty"), honoring
/// "jobs" and "seed". Throws on unknown names.
template <>
struct aequus::json::Decoder<aequus::workload::Scenario> {
  [[nodiscard]] static aequus::workload::Scenario decode(const Value& spec);
};

/// json::decode<testbed::ExperimentConfig> support: builds the experiment
/// configuration from the spec (all keys optional).
template <>
struct aequus::json::Decoder<aequus::testbed::ExperimentConfig> {
  [[nodiscard]] static aequus::testbed::ExperimentConfig decode(const Value& spec);
};
