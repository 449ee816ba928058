// JSON decoding of testbed experiment configurations.
//
// The scenario DSL's "experiment" objects (src/scenario/spec.hpp) decode
// through this: every key is optional, and unknown keys are rejected in
// every object the decoder reads itself, with the key path in the error
// ("timings.servce_update_interval: unknown key"):
//
//   {
//     "dispatch": "stochastic" | "round-robin",
//     "timings": {"service_update_interval": 30, "client_cache_ttl": 30,
//                 "reprioritize_interval": 30, "uss_bin_width": 600,
//                 "uss_retention": ...},
//     "fairshare": {"decay": {"kind": "half-life", "half_life": 86400,
//                             "window": 7200},
//                   "algorithm": {"k": ..., "resolution": ...},
//                   "projection": {"kind": "percental", "bits_per_level": ...},
//                   "backend": "aequus" | {"backend": ..., "credit_refresh_s": ...,
//                                          "credit_cap": ...},
//                   "slurm_weights": {"fairshare": 1, "age": 0, "max_age": ...}},
//     "bus_remote_latency": 0.1, "sample_interval": 60,
//     "record_per_site": false, "drain_seconds": 1800,
//     "usage_batching": {"enabled": true, "batch_interval": 5, ...},
//     "sites": {"4": {"contributes": false}, "5": {"reads_global": false,
//               "rm": "maui"}}
//   }
//
// The experiment seed and offload windows are not config keys: sweeps
// derive a seed per task, and the DSL's run-fraction "offloads" key
// lowers into ExperimentConfig::offloads.
#pragma once

#include "json/decode.hpp"
#include "json/json.hpp"
#include "testbed/experiment.hpp"

/// json::decode<testbed::ExperimentConfig> support: builds the experiment
/// configuration from the spec (all keys optional). Throws
/// std::invalid_argument("<key path>: <reason>") on unknown keys and
/// unknown enum values.
template <>
struct aequus::json::Decoder<aequus::testbed::ExperimentConfig> {
  [[nodiscard]] static aequus::testbed::ExperimentConfig decode(const Value& spec);
};
