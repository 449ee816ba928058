#include "testbed/config.hpp"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

#include "core/backend.hpp"
#include "core/projection.hpp"

namespace {

using aequus::json::Value;

/// Strict key check for an object the decoder reads itself: a typo must
/// fail with its key path ("timings.servce_update_interval: unknown
/// key"), not silently keep the default.
const Value& checked_object(const Value& value, const std::string& path,
                            std::initializer_list<std::string_view> keys) {
  if (!value.is_object()) {
    throw std::invalid_argument((path.empty() ? "experiment" : path) + ": expected an object");
  }
  for (const auto& [key, member] : value.as_object()) {
    (void)member;
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      throw std::invalid_argument((path.empty() ? key : path + "." + key) + ": unknown key");
    }
  }
  return value;
}

/// Decode a nested value with its own type's decoder, prefixing any
/// failure with the key path so every error names where it happened.
template <typename Decode>
auto at_path(const std::string& path, Decode decode) {
  try {
    return decode();
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

}  // namespace

aequus::testbed::ExperimentConfig aequus::json::Decoder<aequus::testbed::ExperimentConfig>::decode(
    const Value& value) {
  namespace core = aequus::core;
  namespace json = aequus::json;
  using namespace aequus::testbed;
  ExperimentConfig config;
  const Value& spec = checked_object(
      value, "",
      {"dispatch", "timings", "fairshare", "bus_remote_latency", "sample_interval",
       "record_per_site", "drain_seconds", "usage_batching", "sites"});

  const std::string dispatch = spec.get_string("dispatch", "stochastic");
  if (dispatch == "stochastic") config.dispatch = DispatchPolicy::kStochastic;
  else if (dispatch == "round-robin") config.dispatch = DispatchPolicy::kRoundRobin;
  else throw std::invalid_argument("dispatch: unknown dispatch policy '" + dispatch + "'");

  if (const auto timings = spec.find("timings")) {
    const auto& t = checked_object(timings->get(), "timings",
                                   {"service_update_interval", "client_cache_ttl",
                                    "reprioritize_interval", "uss_bin_width", "uss_retention"});
    config.timings.service_update_interval =
        t.get_number("service_update_interval", config.timings.service_update_interval);
    config.timings.client_cache_ttl =
        t.get_number("client_cache_ttl", config.timings.client_cache_ttl);
    config.timings.reprioritize_interval =
        t.get_number("reprioritize_interval", config.timings.reprioritize_interval);
    config.timings.uss_bin_width =
        t.get_number("uss_bin_width", config.timings.uss_bin_width);
    config.timings.uss_retention =
        t.get_number("uss_retention", config.timings.uss_retention);
  }
  if (const auto fairshare = spec.find("fairshare")) {
    // The nested objects decode through the lenient core decoders, which
    // installation configs share (services/config.hpp keeps those
    // forward-compatible); the experiment schema checks their keys here.
    const auto& f = checked_object(fairshare->get(), "fairshare",
                                   {"decay", "algorithm", "projection", "backend",
                                    "slurm_weights"});
    if (const auto decay = f.find("decay")) {
      const auto& d = checked_object(decay->get(), "fairshare.decay",
                                     {"kind", "half_life", "window"});
      config.fairshare.decay =
          at_path("fairshare.decay", [&] { return core::Decay::from_json(d).config(); });
    }
    if (const auto algorithm = f.find("algorithm")) {
      const auto& a = checked_object(algorithm->get(), "fairshare.algorithm", {"k", "resolution"});
      config.fairshare.algorithm = at_path("fairshare.algorithm", [&] {
        return json::decode<core::FairshareConfig>(a);
      });
    }
    if (const auto projection = f.find("projection")) {
      const auto& p = checked_object(projection->get(), "fairshare.projection",
                                     {"kind", "bits_per_level"});
      config.fairshare.projection = at_path("fairshare.projection", [&] {
        return json::decode<core::ProjectionConfig>(p);
      });
    }
    if (const auto backend = f.find("backend")) {
      // Accepts a bare name ("credit") or the object form with
      // per-policy tuning; unknown names throw here.
      if (backend->get().is_object()) {
        (void)checked_object(backend->get(), "fairshare.backend",
                             {"backend", "credit_refresh_s", "credit_cap"});
      }
      config.fairshare.backend = at_path("fairshare.backend", [&] {
        return json::decode<core::FairnessBackendConfig>(backend->get());
      });
    }
    if (const auto weights = f.find("slurm_weights")) {
      const auto& w = checked_object(weights->get(), "fairshare.slurm_weights",
                                     {"fairshare", "age", "max_age"});
      auto& out = config.fairshare.slurm_weights;
      out.fairshare = w.get_number("fairshare", out.fairshare);
      out.age = w.get_number("age", out.age);
      out.max_age = w.get_number("max_age", out.max_age);
    }
  }
  config.bus_remote_latency = spec.get_number("bus_remote_latency", config.bus_remote_latency);
  config.sample_interval = spec.get_number("sample_interval", config.sample_interval);
  config.record_per_site = spec.get_bool("record_per_site", config.record_per_site);
  config.drain_seconds = spec.get_number("drain_seconds", config.drain_seconds);

  if (const auto batching = spec.find("usage_batching")) {
    const auto& b = checked_object(batching->get(), "usage_batching",
                                   {"enabled", "batch_interval", "max_batch_records",
                                    "queue_capacity", "overflow"});
    auto& ingest = config.usage_batching;
    ingest.enabled = b.get_bool("enabled", true);
    ingest.batch_interval = b.get_number("batch_interval", ingest.batch_interval);
    ingest.max_batch_records =
        static_cast<std::size_t>(b.get_number("max_batch_records",
                                              static_cast<double>(ingest.max_batch_records)));
    ingest.queue_capacity = static_cast<std::size_t>(
        b.get_number("queue_capacity", static_cast<double>(ingest.queue_capacity)));
    const std::string overflow = b.get_string("overflow", "block");
    if (overflow == "block") ingest.overflow = aequus::ingest::OverflowPolicy::kBlockProducer;
    else if (overflow == "drop-oldest") ingest.overflow = aequus::ingest::OverflowPolicy::kDropOldest;
    else throw std::invalid_argument("usage_batching.overflow: unknown policy '" + overflow + "'");
  }

  if (const auto sites = spec.find("sites")) {
    if (!sites->get().is_object()) throw std::invalid_argument("sites: expected an object");
    for (const auto& [index_text, entry] : sites->get().as_object()) {
      const std::string path = "sites." + index_text;
      int index = -1;
      const char* end = index_text.data() + index_text.size();
      if (std::from_chars(index_text.data(), end, index).ptr != end || index < 0) {
        throw std::invalid_argument(path + ": site key must be a site index");
      }
      const auto& overrides = checked_object(
          entry, path, {"contributes", "reads_global", "rm", "hosts", "cores_per_host"});
      SiteSpec site;
      site.participation.contributes = overrides.get_bool("contributes", true);
      site.participation.reads_global = overrides.get_bool("reads_global", true);
      const std::string rm = overrides.get_string("rm", "slurm");
      if (rm == "slurm") site.rm = RmKind::kSlurm;
      else if (rm == "maui") site.rm = RmKind::kMaui;
      else throw std::invalid_argument(path + ".rm: unknown rm kind '" + rm + "'");
      site.hosts = static_cast<int>(overrides.get_number("hosts", 0));
      site.cores_per_host = static_cast<int>(overrides.get_number("cores_per_host", 0));
      config.site_overrides[index] = site;
    }
  }
  return config;
}
