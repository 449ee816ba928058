// The fairshare calculation algorithm (§II-A and [10]).
//
// For every tree node with sibling-normalized policy share p and
// sibling-normalized (decayed) usage share u, the fairshare distance is a
// weighted combination of two metrics:
//
//   absolute distance  d_abs = p - u                      (range [-1, p])
//   relative distance  d_rel = clamp((p - u) / p, -1, 1)  (1 when idle)
//   distance           d     = k * d_rel + (1 - k) * d_abs
//
// with configurable weight k, default 0.5 ("a default weight of 0.5
// indicating that the absolute and relative components have equal
// weight"). A user below its share gets d > 0, an over-consumer d < 0,
// and perfect balance gives d = 0 — the balance point of the vector
// encoding. With k = 0.5 the maximum distance of a user with share s is
// 0.5 * (1 + s), reproducing the paper's §IV-A-5 check (0.56 for s=0.12).
//
// FairshareEngine (engine.hpp) annotates the policy tree with per-node
// distances and publishes it as a FairshareSnapshot (snapshot.hpp), from
// which per-user fairshare vectors are extracted (§III-C) and projections
// computed.
#pragma once

#include "core/policy.hpp"
#include "core/usage.hpp"
#include "core/vector.hpp"
#include "json/decode.hpp"

namespace aequus::core {

/// The neutral priority factor (the percental balance point): a user at
/// perfect policy/usage balance projects here. This is also the documented
/// resolution for *missing* leaves — a user absent from a factor table
/// (churned in between snapshot generations, unresolvable identity, no
/// data yet) must read as kNeutralFactor, never as a default-constructed
/// 0.0 that would zero the job's whole priority.
inline constexpr double kNeutralFactor = 0.5;

struct FairshareConfig {
  double distance_weight_k = 0.5;       ///< weight of the relative component
  int resolution = kDefaultResolution;  ///< vector element range
};

/// Config wire format: {"k": 0.5, "resolution": 10000}.
[[nodiscard]] json::Value to_json(const FairshareConfig& config);

/// The parameterized algorithm; stateless apart from its configuration.
class FairshareAlgorithm {
 public:
  FairshareAlgorithm() = default;
  explicit FairshareAlgorithm(FairshareConfig config);

  [[nodiscard]] const FairshareConfig& config() const noexcept { return config_; }

  /// Distance for a single node given normalized shares.
  [[nodiscard]] double node_distance(double policy_share, double usage_share) const noexcept;

 private:
  FairshareConfig config_{};
};

}  // namespace aequus::core

/// json::decode<core::FairshareConfig> support.
template <>
struct aequus::json::Decoder<aequus::core::FairshareConfig> {
  [[nodiscard]] static aequus::core::FairshareConfig decode(const Value& value);
};
