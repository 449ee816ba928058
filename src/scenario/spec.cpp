#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "testbed/config.hpp"
#include "util/strings.hpp"

namespace aequus::scenario {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw SpecError(path + ": " + message);
}

std::string type_name(const json::Value& value) {
  if (value.is_null()) return "null";
  if (value.is_bool()) return "a boolean";
  if (value.is_number()) return "a number";
  if (value.is_string()) return "a string";
  if (value.is_array()) return "an array";
  return "an object";
}

const json::Object& as_object(const json::Value& value, const std::string& path) {
  if (!value.is_object()) fail(path, "expected an object, got " + type_name(value));
  return value.as_object();
}

const json::Array& as_array(const json::Value& value, const std::string& path) {
  if (!value.is_array()) fail(path, "expected an array, got " + type_name(value));
  return value.as_array();
}

double as_number(const json::Value& value, const std::string& path) {
  if (!value.is_number()) fail(path, "expected a number, got " + type_name(value));
  return value.as_number();
}

std::string as_string(const json::Value& value, const std::string& path) {
  if (!value.is_string()) fail(path, "expected a string, got " + type_name(value));
  return value.as_string();
}

bool as_bool(const json::Value& value, const std::string& path) {
  if (!value.is_bool()) fail(path, "expected a boolean, got " + type_name(value));
  return value.as_bool();
}

/// Strict key check: every key of `object` must be in `allowed`.
void reject_unknown_keys(const json::Object& object, const std::string& path,
                         std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object) {
    (void)value;
    if (std::find_if(allowed.begin(), allowed.end(),
                     [&key](const char* name) { return key == name; }) == allowed.end()) {
      fail(path + "." + key, "unknown key");
    }
  }
}

/// Typed field getters on an already-verified object.
const json::Value* find(const json::Object& object, const std::string& key) {
  const auto it = object.find(key);
  return it != object.end() ? &it->second : nullptr;
}

double number_or(const json::Object& object, const std::string& path, const std::string& key,
                 double fallback) {
  const json::Value* value = find(object, key);
  return value ? as_number(*value, path + "." + key) : fallback;
}

bool bool_or(const json::Object& object, const std::string& path, const std::string& key,
             bool fallback) {
  const json::Value* value = find(object, key);
  return value ? as_bool(*value, path + "." + key) : fallback;
}

std::string string_or(const json::Object& object, const std::string& path,
                      const std::string& key, std::string fallback) {
  const json::Value* value = find(object, key);
  return value ? as_string(*value, path + "." + key) : std::move(fallback);
}

/// A run-fraction: a number in [0, 1].
double fraction_or(const json::Object& object, const std::string& path, const std::string& key,
                   double fallback) {
  const double value = number_or(object, path, key, fallback);
  if (!(value >= 0.0 && value <= 1.0)) {
    fail(path + "." + key,
         util::format("time fraction %g out of range [0, 1]", value));
  }
  return value;
}

double nonnegative_or(const json::Object& object, const std::string& path,
                      const std::string& key, double fallback) {
  const double value = number_or(object, path, key, fallback);
  if (!(value >= 0.0)) fail(path + "." + key, util::format("%g must be >= 0", value));
  return value;
}

double probability_or(const json::Object& object, const std::string& path,
                      const std::string& key, double fallback) {
  const double value = number_or(object, path, key, fallback);
  if (!(value >= 0.0 && value <= 1.0)) {
    fail(path + "." + key, util::format("probability %g out of range [0, 1]", value));
  }
  return value;
}

WorkloadSpec parse_workload(const json::Value& value, const std::string& path) {
  const json::Object& object = as_object(value, path);
  reject_unknown_keys(object, path, {"base", "jobs", "seed", "clusters", "hosts_per_cluster"});
  WorkloadSpec workload;
  workload.base = string_or(object, path, "base", workload.base);
  if (workload.base != "baseline" && workload.base != "nonoptimal-policy" &&
      workload.base != "bursty") {
    fail(path + ".base", "unknown base workload '" + workload.base +
                             "' (expected baseline | nonoptimal-policy | bursty)");
  }
  const double jobs = number_or(object, path, "jobs", static_cast<double>(workload.jobs));
  if (!(jobs >= 1.0)) fail(path + ".jobs", util::format("%g must be >= 1", jobs));
  workload.jobs = static_cast<std::size_t>(jobs);
  workload.seed = static_cast<std::uint64_t>(
      nonnegative_or(object, path, "seed", static_cast<double>(workload.seed)));
  const double clusters = number_or(object, path, "clusters", 0.0);
  if (clusters < 0.0) fail(path + ".clusters", "must be >= 0 (0 = default)");
  workload.clusters = static_cast<int>(clusters);
  const double hosts = number_or(object, path, "hosts_per_cluster", 0.0);
  if (hosts < 0.0) fail(path + ".hosts_per_cluster", "must be >= 0 (0 = default)");
  workload.hosts_per_cluster = static_cast<int>(hosts);
  return workload;
}

std::vector<PhaseSpec> parse_phases(const json::Value& value, const std::string& path) {
  std::vector<PhaseSpec> phases;
  const json::Array& array = as_array(value, path);
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = util::format("%s[%zu]", path.c_str(), i);
    const json::Object& object = as_object(array[i], item_path);
    reject_unknown_keys(object, item_path, {"start", "end", "rate"});
    PhaseSpec phase;
    phase.start = fraction_or(object, item_path, "start", 0.0);
    phase.end = fraction_or(object, item_path, "end", 0.0);
    phase.rate = nonnegative_or(object, item_path, "rate", 1.0);
    if (!(phase.end > phase.start)) {
      fail(item_path, util::format("phase end %g must be > start %g", phase.end, phase.start));
    }
    phases.push_back(phase);
  }
  std::sort(phases.begin(), phases.end(),
            [](const PhaseSpec& a, const PhaseSpec& b) { return a.start < b.start; });
  for (std::size_t i = 1; i < phases.size(); ++i) {
    if (phases[i].start < phases[i - 1].end) {
      fail(util::format("%s[%zu]", path.c_str(), i),
           util::format("phase [%g, %g) overlaps previous phase ending at %g",
                        phases[i].start, phases[i].end, phases[i - 1].end));
    }
  }
  return phases;
}

std::vector<ChurnSpec> parse_churn(const json::Value& value, const std::string& path) {
  std::vector<ChurnSpec> churn;
  const json::Array& array = as_array(value, path);
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = util::format("%s[%zu]", path.c_str(), i);
    const json::Object& object = as_object(array[i], item_path);
    reject_unknown_keys(object, item_path, {"user", "join", "leave"});
    ChurnSpec entry;
    entry.user = string_or(object, item_path, "user", "");
    if (entry.user.empty()) fail(item_path + ".user", "required non-empty string");
    entry.join = fraction_or(object, item_path, "join", 0.0);
    entry.leave = fraction_or(object, item_path, "leave", 1.0);
    if (!(entry.leave > entry.join)) {
      fail(item_path, util::format("leave %g must be > join %g", entry.leave, entry.join));
    }
    churn.push_back(std::move(entry));
  }
  return churn;
}

std::vector<OffloadSpec> parse_offloads(const json::Value& value, const std::string& path) {
  std::vector<OffloadSpec> offloads;
  const json::Array& array = as_array(value, path);
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = util::format("%s[%zu]", path.c_str(), i);
    const json::Object& object = as_object(array[i], item_path);
    reject_unknown_keys(object, item_path, {"from_site", "to_site", "fraction", "start", "end"});
    OffloadSpec rule;
    const double from = number_or(object, item_path, "from_site", -1.0);
    if (from < -1.0) fail(item_path + ".from_site", "must be a site index or -1 (any)");
    rule.from_site = static_cast<int>(from);
    const double to = number_or(object, item_path, "to_site", -1.0);
    if (to < 0.0) fail(item_path + ".to_site", "required site index >= 0");
    rule.to_site = static_cast<int>(to);
    rule.fraction = probability_or(object, item_path, "fraction", 0.0);
    rule.start = fraction_or(object, item_path, "start", 0.0);
    rule.end = fraction_or(object, item_path, "end", 1.0);
    if (!(rule.end > rule.start)) {
      fail(item_path, util::format("end %g must be > start %g", rule.end, rule.start));
    }
    offloads.push_back(std::move(rule));
  }
  return offloads;
}

FaultSpec parse_faults(const json::Value& value, const std::string& path) {
  const json::Object& object = as_object(value, path);
  reject_unknown_keys(object, path, {"loss_rate", "duplicate_rate", "latency_jitter", "seed",
                                     "link_loss", "outages"});
  FaultSpec faults;
  faults.loss_rate = probability_or(object, path, "loss_rate", 0.0);
  faults.duplicate_rate = probability_or(object, path, "duplicate_rate", 0.0);
  faults.latency_jitter = nonnegative_or(object, path, "latency_jitter", 0.0);
  faults.seed = static_cast<std::uint64_t>(
      nonnegative_or(object, path, "seed", static_cast<double>(faults.seed)));
  if (const json::Value* links = find(object, "link_loss")) {
    const std::string links_path = path + ".link_loss";
    const json::Array& array = as_array(*links, links_path);
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string item_path = util::format("%s[%zu]", links_path.c_str(), i);
      const json::Object& entry = as_object(array[i], item_path);
      reject_unknown_keys(entry, item_path, {"from", "to", "rate"});
      LinkLossSpec link;
      link.from = string_or(entry, item_path, "from", "");
      link.to = string_or(entry, item_path, "to", "");
      if (link.from.empty()) fail(item_path + ".from", "required non-empty site name");
      if (link.to.empty()) fail(item_path + ".to", "required non-empty site name");
      link.rate = probability_or(entry, item_path, "rate", 0.0);
      faults.link_loss.push_back(std::move(link));
    }
  }
  if (const json::Value* outages = find(object, "outages")) {
    const std::string outages_path = path + ".outages";
    const json::Array& array = as_array(*outages, outages_path);
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string item_path = util::format("%s[%zu]", outages_path.c_str(), i);
      const json::Object& entry = as_object(array[i], item_path);
      reject_unknown_keys(entry, item_path, {"site", "start", "end"});
      OutageSpec outage;
      outage.site = string_or(entry, item_path, "site", "");
      if (outage.site.empty()) fail(item_path + ".site", "required non-empty site name");
      outage.start = fraction_or(entry, item_path, "start", 0.0);
      outage.end = fraction_or(entry, item_path, "end", 0.0);
      if (outage.end < outage.start) {
        fail(item_path, util::format("end %g must be >= start %g (zero-length allowed)",
                                     outage.end, outage.start));
      }
      faults.outages.push_back(std::move(outage));
    }
  }
  return faults;
}

/// Fairness backend selection: a bare backend name ("credit") or an
/// object with per-policy tuning. An unknown backend fails with the
/// registry's live name list at the exact path — "$.fairness.backend:
/// unknown fairness backend 'x' (expected aequus | balanced | credit)".
core::FairnessBackendConfig parse_fairness(const json::Value& value, const std::string& path) {
  core::FairnessBackendConfig config;
  if (value.is_string()) {
    config.name = value.as_string();
  } else {
    const json::Object& object = as_object(value, path);
    reject_unknown_keys(object, path, {"backend", "credit_refresh_s", "credit_cap"});
    config.name = string_or(object, path, "backend", config.name);
    config.credit_refresh_s =
        number_or(object, path, "credit_refresh_s", config.credit_refresh_s);
    config.credit_cap = number_or(object, path, "credit_cap", config.credit_cap);
  }
  if (!core::fairness_backend_known(config.name)) {
    std::string known;
    for (const std::string& name : core::fairness_backend_names()) {
      if (!known.empty()) known += " | ";
      known += name;
    }
    fail(path + ".backend",
         "unknown fairness backend '" + config.name + "' (expected " + known + ")");
  }
  if (!(config.credit_refresh_s > 0.0)) {
    fail(path + ".credit_refresh_s",
         util::format("%g must be > 0", config.credit_refresh_s));
  }
  if (!(config.credit_cap > 0.0)) {
    fail(path + ".credit_cap", util::format("%g must be > 0", config.credit_cap));
  }
  return config;
}

/// An experiment overlay is validated by decoding it on its own (every
/// ExperimentConfig key is optional, so a partial overlay decodes), so
/// the DSL and the testbed share one schema. Decoder errors carry their
/// key path ("timings.servce_update_interval: unknown key"), prefixed
/// here with the overlay's own path.
json::Value parse_experiment(const json::Value& value, const std::string& path) {
  (void)as_object(value, path);
  try {
    (void)json::decode<testbed::ExperimentConfig>(value);
  } catch (const std::exception& error) {
    throw SpecError(path + "." + error.what());
  }
  return value;
}

/// `faults` is the spec's raw "faults" object (null when absent): a
/// variant's own "faults" object merges over it, and the merged block
/// decodes with the variant's path in any error.
std::vector<VariantSpec> parse_variants(const json::Value& value, const std::string& path,
                                        const json::Value& faults) {
  std::vector<VariantSpec> variants;
  const json::Array& array = as_array(value, path);
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = util::format("%s[%zu]", path.c_str(), i);
    const json::Object& object = as_object(array[i], item_path);
    reject_unknown_keys(object, item_path, {"name", "scale", "experiment", "faults"});
    VariantSpec variant;
    variant.name = string_or(object, item_path, "name", "");
    if (variant.name.empty()) fail(item_path + ".name", "required non-empty string");
    variant.scale = number_or(object, item_path, "scale", 1.0);
    if (!(variant.scale > 0.0)) {
      fail(item_path + ".scale", util::format("%g must be > 0", variant.scale));
    }
    if (const json::Value* experiment = find(object, "experiment")) {
      variant.experiment = parse_experiment(*experiment, item_path + ".experiment");
    }
    if (const json::Value* overlay = find(object, "faults")) {
      variant.faults = parse_faults(deep_merge(faults, *overlay), item_path + ".faults");
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

SweepSettings parse_sweep(const json::Value& value, const std::string& path) {
  const json::Object& object = as_object(value, path);
  reject_unknown_keys(object, path, {"replications", "root_seed", "convergence_epsilon"});
  SweepSettings sweep;
  const double replications =
      number_or(object, path, "replications", static_cast<double>(sweep.replications));
  if (!(replications >= 1.0)) fail(path + ".replications", "must be >= 1");
  sweep.replications = static_cast<std::size_t>(replications);
  sweep.root_seed = static_cast<std::uint64_t>(
      nonnegative_or(object, path, "root_seed", static_cast<double>(sweep.root_seed)));
  sweep.convergence_epsilon =
      nonnegative_or(object, path, "convergence_epsilon", sweep.convergence_epsilon);
  return sweep;
}

GateSpec parse_gates(const json::Value& value, const std::string& path) {
  const json::Object& object = as_object(value, path);
  reject_unknown_keys(object, path, {"invariants", "reconvergence", "conservation",
                                     "determinism", "convergence_tolerance"});
  GateSpec gates;
  gates.invariants = bool_or(object, path, "invariants", gates.invariants);
  gates.reconvergence = bool_or(object, path, "reconvergence", gates.reconvergence);
  gates.conservation = string_or(object, path, "conservation", gates.conservation);
  if (gates.conservation != "auto" && gates.conservation != "on" &&
      gates.conservation != "off") {
    fail(path + ".conservation",
         "unknown value '" + gates.conservation + "' (expected auto | on | off)");
  }
  gates.determinism = bool_or(object, path, "determinism", gates.determinism);
  gates.convergence_tolerance =
      nonnegative_or(object, path, "convergence_tolerance", gates.convergence_tolerance);
  return gates;
}

RecordSpec parse_record(const json::Value& value, const std::string& path) {
  const json::Object& object = as_object(value, path);
  reject_unknown_keys(object, path, {"enabled", "path", "cap", "format"});
  RecordSpec record;
  // Writing a "record" object at all means "record this scenario" unless
  // explicitly switched off.
  record.enabled = bool_or(object, path, "enabled", true);
  record.path = string_or(object, path, "path", "");
  const double cap = nonnegative_or(object, path, "cap", 0.0);
  record.cap = static_cast<std::size_t>(cap);
  record.format = string_or(object, path, "format", record.format);
  if (record.format != "binary" && record.format != "jsonl") {
    fail(path + ".format",
         "unknown value '" + record.format + "' (expected binary | jsonl)");
  }
  return record;
}

}  // namespace

json::Value deep_merge(const json::Value& base, const json::Value& overlay) {
  if (overlay.is_null()) return base;
  if (!base.is_object() || !overlay.is_object()) return overlay;
  json::Object merged = base.as_object();
  for (const auto& [key, value] : overlay.as_object()) {
    const auto it = merged.find(key);
    merged[key] = it != merged.end() ? deep_merge(it->second, value) : value;
  }
  return json::Value(std::move(merged));
}

ScenarioSpec parse_spec(const json::Value& value) {
  const std::string path = "$";
  const json::Object& object = as_object(value, path);
  reject_unknown_keys(object, path,
                      {"name", "description", "workload", "policy_shares", "phases", "churn",
                       "offloads", "faults", "fairness", "experiment", "variants", "sweep",
                       "gates", "record"});

  ScenarioSpec spec;
  spec.name = string_or(object, path, "name", "");
  if (spec.name.empty()) fail(path + ".name", "required non-empty string");
  spec.description = string_or(object, path, "description", "");
  if (const json::Value* workload = find(object, "workload")) {
    spec.workload = parse_workload(*workload, path + ".workload");
  }
  if (const json::Value* shares = find(object, "policy_shares")) {
    const std::string shares_path = path + ".policy_shares";
    for (const auto& [user, share] : as_object(*shares, shares_path)) {
      const double parsed = as_number(share, shares_path + "." + user);
      if (!(parsed >= 0.0)) fail(shares_path + "." + user, "share must be >= 0");
      spec.policy_shares[user] = parsed;
    }
  }
  if (const json::Value* phases = find(object, "phases")) {
    spec.phases = parse_phases(*phases, path + ".phases");
  }
  if (const json::Value* churn = find(object, "churn")) {
    spec.churn = parse_churn(*churn, path + ".churn");
  }
  if (const json::Value* offloads = find(object, "offloads")) {
    spec.offloads = parse_offloads(*offloads, path + ".offloads");
  }
  if (const json::Value* faults = find(object, "faults")) {
    spec.faults = parse_faults(*faults, path + ".faults");
  }
  if (const json::Value* fairness = find(object, "fairness")) {
    spec.fairness = parse_fairness(*fairness, path + ".fairness");
  }
  if (const json::Value* experiment = find(object, "experiment")) {
    spec.experiment = parse_experiment(*experiment, path + ".experiment");
  }
  if (const json::Value* variants = find(object, "variants")) {
    const json::Value* faults = find(object, "faults");
    spec.variants =
        parse_variants(*variants, path + ".variants", faults ? *faults : json::Value());
  }
  if (const json::Value* sweep = find(object, "sweep")) {
    spec.sweep = parse_sweep(*sweep, path + ".sweep");
  }
  if (const json::Value* gates = find(object, "gates")) {
    spec.gates = parse_gates(*gates, path + ".gates");
  }
  if (const json::Value* record = find(object, "record")) {
    spec.record = parse_record(*record, path + ".record");
  }
  return spec;
}

ScenarioSpec parse_spec_text(const std::string& text) {
  json::Value value;
  try {
    value = json::parse(text);
  } catch (const std::exception& e) {
    throw SpecError(std::string("$: invalid JSON: ") + e.what());
  }
  return parse_spec(value);
}

}  // namespace aequus::scenario
