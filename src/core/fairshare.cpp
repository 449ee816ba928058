#include "core/fairshare.hpp"

#include <algorithm>
#include <stdexcept>

namespace aequus::core {

json::Value to_json(const FairshareConfig& config) {
  json::Object obj;
  obj["k"] = config.distance_weight_k;
  obj["resolution"] = config.resolution;
  return json::Value(std::move(obj));
}

FairshareAlgorithm::FairshareAlgorithm(FairshareConfig config) : config_(config) {
  if (config_.distance_weight_k < 0.0 || config_.distance_weight_k > 1.0) {
    throw std::invalid_argument("FairshareAlgorithm: k must be in [0, 1]");
  }
  if (config_.resolution < 2) {
    throw std::invalid_argument("FairshareAlgorithm: resolution must be >= 2");
  }
}

namespace {
/// Clamp a share into [0, 1]. NaN and negatives become 0 so that a
/// corrupt share can never divide the relative distance into NaN (which
/// the json serializer rejects); valid shares pass through with their
/// exact bits.
double canonical_share(double share) noexcept {
  if (!(share > 0.0)) return 0.0;
  return std::min(share, 1.0);
}
}  // namespace

double FairshareAlgorithm::node_distance(double policy_share, double usage_share) const noexcept {
  const double k = config_.distance_weight_k;
  const double p = canonical_share(policy_share);
  const double u = canonical_share(usage_share);
  const double absolute = p - u;
  double relative = 0.0;
  if (p > 0.0) {
    relative = std::clamp((p - u) / p, -1.0, 1.0);
  } else if (u > 0.0) {
    relative = -1.0;  // consuming with no allocation: maximal over-use
  }
  return k * relative + (1.0 - k) * absolute;
}

}  // namespace aequus::core

aequus::core::FairshareConfig aequus::json::Decoder<aequus::core::FairshareConfig>::decode(
    const Value& value) {
  aequus::core::FairshareConfig config;
  config.distance_weight_k = value.get_number("k", config.distance_weight_k);
  config.resolution = static_cast<int>(value.get_number("resolution", config.resolution));
  return config;
}
