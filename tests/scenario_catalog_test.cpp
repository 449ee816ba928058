// The shipped scenario catalog, end to end at reduced scale.
//
// Every scenarios/*.json must decode, compile, and pass all of its
// invariant gates — including the determinism gate, which re-runs each
// sweep at a different thread count and requires bit-identical per-task
// fingerprints. $AEQUUS_SCENARIO_SCALE compresses the run further in
// sanitizer CI.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "scenario/catalog.hpp"
#include "scenario/compile.hpp"
#include "scenario/runner.hpp"

namespace aequus::scenario {
namespace {

CompileOptions reduced() {
  CompileOptions options;
  options.jobs_scale = 0.005;  // 43,200 -> 216 jobs
  options.max_jobs = 240;
  options.time_scale = 0.1;  // six hours -> 36 minutes
  apply_env_scale(options);
  return options;
}

TEST(ScenarioCatalog, ShipsAtLeastEightSpecsWithUniqueMatchingNames) {
  const std::vector<std::string> paths = list_catalog();
  ASSERT_GE(paths.size(), 8u) << "catalog at " << catalog_dir() << " is missing specs";
  std::set<std::string> names;
  for (const std::string& path : paths) {
    const ScenarioSpec spec = load_spec_file(path);
    EXPECT_EQ(spec.name, std::filesystem::path(path).stem().string())
        << "spec name must match its filename";
    EXPECT_FALSE(spec.description.empty()) << spec.name << " needs a description";
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate name " << spec.name;
  }
}

TEST(ScenarioCatalog, CoversTheModifierMatrix) {
  // The catalog is only a regression net if the DSL features all appear.
  bool phases = false, churn = false, offloads = false, outages = false, loss = false,
       variants = false, variant_faults = false, participation = false;
  // A "sites" override switching a site's contribution or global reads off.
  const auto overrides_participation = [](const json::Value& experiment) {
    const auto sites = experiment.is_object() ? experiment.find("sites") : std::nullopt;
    if (!sites) return false;
    for (const auto& [index, site] : sites->get().as_object()) {
      (void)index;
      if (!site.get_bool("contributes", true) || !site.get_bool("reads_global", true)) {
        return true;
      }
    }
    return false;
  };
  for (const std::string& path : list_catalog()) {
    const ScenarioSpec spec = load_spec_file(path);
    phases = phases || !spec.phases.empty();
    churn = churn || !spec.churn.empty();
    offloads = offloads || !spec.offloads.empty();
    outages = outages || !spec.faults.outages.empty();
    loss = loss || spec.faults.loss_rate > 0.0 || spec.faults.duplicate_rate > 0.0;
    variants = variants || !spec.variants.empty();
    participation = participation || overrides_participation(spec.experiment);
    for (const VariantSpec& variant : spec.variants) {
      variant_faults = variant_faults || variant.faults.has_value();
      participation = participation || overrides_participation(variant.experiment);
    }
  }
  EXPECT_TRUE(phases) << "no spec exercises phase schedules";
  EXPECT_TRUE(churn) << "no spec exercises user churn";
  EXPECT_TRUE(offloads) << "no spec exercises cross-site offloading";
  EXPECT_TRUE(outages) << "no spec exercises site outages";
  EXPECT_TRUE(loss) << "no spec exercises message loss/duplication";
  EXPECT_TRUE(variants) << "no spec exercises sweep variants";
  EXPECT_TRUE(variant_faults) << "no spec exercises variant-level faults";
  EXPECT_TRUE(participation) << "no spec exercises a site participation override";
}

TEST(ScenarioCatalog, ShipsTheIngestCadenceSweep) {
  // The batched-ingestion regression net (DESIGN.md §6g): the catalog
  // must carry a spec sweeping the delta-log flush cadence against the
  // per-RPC path, with an outage in the window (so conservation=auto
  // correctly skips) and overlays flowing through the usage_batching
  // experiment key.
  bool found = false;
  for (const std::string& path : list_catalog()) {
    const ScenarioSpec spec = load_spec_file(path);
    if (spec.name != "ingest_cadence_sweep") continue;
    found = true;
    EXPECT_FALSE(spec.faults.outages.empty()) << "sweep must include a site outage";
    EXPECT_FALSE(spec.churn.empty()) << "sweep must include user churn";
    ASSERT_GE(spec.variants.size(), 3u) << "needs per-RPC plus multiple cadences";
    // The base experiment enables batching; at least one variant overlay
    // disables it and at least one changes the cadence.
    ASSERT_TRUE(spec.experiment.is_object());
    EXPECT_TRUE(spec.experiment.find("usage_batching").has_value());
    bool disables = false, retunes = false;
    for (const VariantSpec& variant : spec.variants) {
      if (!variant.experiment.is_object()) continue;
      if (const auto batching = variant.experiment.find("usage_batching")) {
        disables = disables || !batching->get().get_bool("enabled", true);
        retunes = retunes || batching->get().find("batch_interval").has_value();
      }
    }
    EXPECT_TRUE(disables) << "no variant falls back to per-RPC reporting";
    EXPECT_TRUE(retunes) << "no variant sweeps the batch interval";
  }
  EXPECT_TRUE(found) << "scenarios/ingest_cadence_sweep.json missing from catalog";
}

TEST(ScenarioCatalog, EverySpecPassesItsGatesAtReducedScale) {
  const std::vector<std::string> paths = list_catalog();
  ASSERT_FALSE(paths.empty());
  const CompileOptions options = reduced();
  for (const std::string& path : paths) {
    const ScenarioSpec spec = load_spec_file(path);
    const CompiledScenario compiled = compile(spec, options);
    const ScenarioReport report = run_scenario(compiled);
    EXPECT_TRUE(report.passed) << compiled.name << " failed its gates";
    for (const GateResult& gate : report.gates) {
      EXPECT_TRUE(gate.passed) << compiled.name << " gate '" << gate.gate
                               << "': " << gate.detail;
    }
    // Determinism is the catalog's headline contract: unless a spec
    // explicitly opted out, the dual-threaded gate must have run.
    if (spec.gates.determinism) {
      bool found = false;
      for (const GateResult& gate : report.gates) found = found || gate.gate == "determinism";
      EXPECT_TRUE(found) << compiled.name << " skipped the determinism gate";
    }
    EXPECT_EQ(report.fingerprints.size(), report.tasks);
  }
}

TEST(ScenarioCatalog, ReportJsonCarriesTheSchema) {
  const CompileOptions options = reduced();
  const ScenarioSpec spec = load_spec_file(list_catalog().front());
  const CompiledScenario compiled = compile(spec, options);
  RunOptions run;
  run.determinism = false;  // schema shape only; gates ran above
  const ScenarioReport report = run_scenario(compiled, run);
  const json::Value document = catalog_report_json({report}, report.wall_seconds);
  EXPECT_EQ(document.at("schema").as_string(), "aequus-scenario-report-v1");
  EXPECT_TRUE(document.at("passed").is_bool());
  ASSERT_EQ(document.at("scenarios").size(), 1u);
  const json::Value& entry = document.at("scenarios").at(0);
  EXPECT_EQ(entry.at("name").as_string(), compiled.name);
  EXPECT_TRUE(entry.at("gates").is_array());
  EXPECT_TRUE(entry.at("variants").is_object());
  EXPECT_EQ(entry.at("fingerprints").size(), report.tasks);
  for (const auto& fp : entry.at("fingerprints").as_array()) {
    EXPECT_EQ(fp.as_string().size(), 16u) << "fingerprints are fnv1a64 hex";
  }
}

}  // namespace
}  // namespace aequus::scenario
