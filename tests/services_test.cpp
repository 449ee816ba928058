#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "services/installation.hpp"
#include "services/telemetry.hpp"
#include "util/strings.hpp"

namespace aequus::services {
namespace {

class ServicesTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  net::ServiceBus bus{simulator};
};

core::PolicyTree flat_policy(const std::map<std::string, double>& shares) {
  core::PolicyTree policy;
  for (const auto& [user, share] : shares) policy.set_share("/" + user, share);
  return policy;
}

TEST_F(ServicesTest, UssAggregatesReportsIntoBins) {
  Uss uss(simulator, bus, "site0", UssConfig{60.0});
  simulator.schedule_at(10.0, [&] { uss.report("alice", 100.0); });
  simulator.schedule_at(20.0, [&] { uss.report("alice", 50.0); });
  simulator.schedule_at(70.0, [&] { uss.report("alice", 25.0); });
  simulator.run_all();
  const auto& bins = uss.histograms().at("alice");
  ASSERT_EQ(bins.size(), 2u);  // two 60 s intervals
  EXPECT_DOUBLE_EQ(bins[0].first, 0.0);
  EXPECT_DOUBLE_EQ(bins[0].second, 150.0);
  EXPECT_DOUBLE_EQ(bins[1].first, 60.0);
  EXPECT_DOUBLE_EQ(bins[1].second, 25.0);
  EXPECT_DOUBLE_EQ(uss.total_for("alice"), 175.0);
  EXPECT_DOUBLE_EQ(uss.total_for("nobody"), 0.0);
  EXPECT_EQ(uss.reports_received(), 3u);
}

TEST_F(ServicesTest, UssIgnoresNonPositiveUsage) {
  Uss uss(simulator, bus, "site0");
  uss.report("alice", 0.0);
  uss.report("alice", -5.0);
  EXPECT_EQ(uss.reports_received(), 0u);
}

TEST_F(ServicesTest, UssServesBusProtocol) {
  Uss uss(simulator, bus, "site0");
  const json::Value ok = bus.call(
      "site0.uss", json::parse(R"({"op":"report","user":"bob","usage":42})"));
  EXPECT_TRUE(ok.get_bool("ok"));
  const json::Value histograms =
      bus.call("site0.uss", json::parse(R"({"op":"histograms"})"));
  EXPECT_DOUBLE_EQ(histograms.at("users").at("bob").at(0).at(1).as_number(), 42.0);
  const json::Value bad = bus.call("site0.uss", json::parse(R"({"op":"nope"})"));
  EXPECT_FALSE(bad.get_string("error").empty());
}

TEST_F(ServicesTest, PdsServesAndMountsPolicies) {
  Pds local(simulator, bus, "site0");
  Pds remote(simulator, bus, "global");
  local.set_policy(flat_policy({{"local_user", 0.7}}));
  core::PolicyTree grid;
  grid.set_share("/projA", 1.0);
  grid.set_share("/projB", 1.0);
  remote.set_policy(grid);

  local.mount_remote("/grid", "global.pds", 0.3, 500.0);
  simulator.run_until(5.0);  // let the first fetch round-trip

  EXPECT_EQ(local.mounts_applied(), 1);
  EXPECT_TRUE(local.policy().contains("/grid/projA"));
  EXPECT_DOUBLE_EQ(*local.policy().normalized_share("/grid"), 0.3);

  // Changing the remote policy propagates at the next refresh.
  core::PolicyTree grid2;
  grid2.set_share("/projC", 1.0);
  remote.set_policy(grid2);
  simulator.run_until(600.0);
  EXPECT_TRUE(local.policy().contains("/grid/projC"));
  EXPECT_FALSE(local.policy().contains("/grid/projA"));
}

TEST_F(ServicesTest, UmsBuildsDecayedUsageTree) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 0.5}, {"bob", 0.5}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.update_interval = 30.0;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);

  simulator.schedule_at(5.0, [&] { uss.report("alice", 120.0); });
  simulator.run_until(40.0);
  EXPECT_GE(ums.polls_completed(), 1u);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 120.0);
}

TEST_F(ServicesTest, UmsAppliesDecay) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.update_interval = 10.0;
  config.decay = core::DecayConfig{core::DecayKind::kExponentialHalfLife, 100.0, 0.0};
  Ums ums(simulator, bus, "site0", config);

  simulator.schedule_at(0.5, [&] { uss.report("alice", 100.0); });
  simulator.run_until(210.0);
  // Usage was binned at t=0; ~200 s later its weight is ~2^-2 = 0.25.
  EXPECT_NEAR(ums.usage_tree().usage("/alice"), 25.0, 2.0);
}

TEST_F(ServicesTest, UmsMergesRemoteSites) {
  Pds pds0(simulator, bus, "site0");
  pds0.set_policy(flat_policy({{"alice", 1.0}}));
  Uss uss0(simulator, bus, "site0");
  Uss uss1(simulator, bus, "site1");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  ums.set_peers({"site1.uss"});

  simulator.schedule_at(1.0, [&] {
    uss0.report("alice", 10.0);
    uss1.report("alice", 32.0);
  });
  simulator.run_until(65.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 42.0);
}

TEST_F(ServicesTest, UmsLocalOnlyModeIgnoresPeers) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}}));
  Uss uss0(simulator, bus, "site0");
  Uss uss1(simulator, bus, "site1");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  config.read_remote = false;  // §IV-A-4 local-only site
  Ums ums(simulator, bus, "site0", config);
  ums.set_peers({"site1.uss"});

  simulator.schedule_at(1.0, [&] {
    uss0.report("alice", 10.0);
    uss1.report("alice", 32.0);
  });
  simulator.run_until(65.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 10.0);
}

TEST_F(ServicesTest, UmsUnmappedUsersLandUnderRoot) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"known", 1.0}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  simulator.schedule_at(1.0, [&] { uss.report("stranger", 50.0); });
  simulator.run_until(65.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/stranger"), 50.0);
}

TEST_F(ServicesTest, FcsPrecalculatesFairshareTable) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 0.5}, {"bob", 0.5}}));
  site.uss().report("alice", 400.0);
  simulator.run_until(100.0);

  EXPECT_GE(site.fcs().calculations(), 1u);
  // alice over-used, bob idle: bob's factor above balance, alice below.
  EXPECT_GT(site.fcs().factor_for("bob"), 0.5);
  EXPECT_LT(site.fcs().factor_for("alice"), 0.5);
  EXPECT_DOUBLE_EQ(site.fcs().factor_for("nobody"), 0.5);
}

TEST_F(ServicesTest, FcsServesBusProtocol) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  site.uss().report("alice", 100.0);
  simulator.run_until(100.0);

  const json::Value one =
      bus.call("site0.fcs", json::parse(R"({"op":"fairshare","user":"bob"})"));
  EXPECT_GT(one.get_number("value"), 0.5);
  EXPECT_FALSE(one.get_string("vector").empty());

  const json::Value table = bus.call("site0.fcs", json::parse(R"({"op":"table"})"));
  EXPECT_EQ(table.at("users").size(), 2u);

  const json::Value tree = bus.call("site0.fcs", json::parse(R"({"op":"tree"})"));
  EXPECT_TRUE(tree.find("tree").has_value());
}

TEST_F(ServicesTest, FcsTableGenerationShortCircuit) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  site.uss().report("alice", 100.0);
  simulator.run_until(100.0);

  // The plain reply is byte-identical to the pre-engine protocol: no
  // generation stamp unless the caller opts in.
  const json::Value plain = bus.call("site0.fcs", json::parse(R"({"op":"table"})"));
  EXPECT_FALSE(plain.find("generation").has_value());

  // A stale generation gets the full table plus the current stamp.
  const json::Value full =
      bus.call("site0.fcs", json::parse(R"({"op":"table","if_generation":0})"));
  const double generation = full.get_number("generation");
  EXPECT_GT(generation, 0.0);
  EXPECT_FALSE(full.find("unchanged").has_value());
  EXPECT_EQ(full.at("users").size(), 2u);

  // Replaying the current generation short-circuits: no user table at all.
  json::Object repeat;
  repeat["op"] = std::string("table");
  repeat["if_generation"] = generation;
  const json::Value unchanged = bus.call("site0.fcs", json::Value(std::move(repeat)));
  EXPECT_TRUE(unchanged.get_bool("unchanged"));
  EXPECT_DOUBLE_EQ(unchanged.get_number("generation"), generation);
  EXPECT_FALSE(unchanged.find("users").has_value());
}

TEST_F(ServicesTest, FcsSnapshotOp) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));

  // Before the first calculation the FCS serves an empty snapshot, and a
  // tree of one unnamed, zero-valued node in the bytes clients have
  // always received.
  const json::Value empty = bus.call("site0.fcs", json::parse(R"({"op":"snapshot"})"));
  EXPECT_DOUBLE_EQ(empty.get_number("generation"), 0.0);
  EXPECT_EQ(empty.at("users").size(), 0u);
  EXPECT_EQ(bus.call("site0.fcs", json::parse(R"({"op":"tree"})")).dump(),
            R"({"resolution":10000,"tree":{"distance":0,"name":"","policy":0,"usage":0}})");

  site.uss().report("alice", 100.0);
  simulator.run_until(100.0);

  const json::Value flat = bus.call("site0.fcs", json::parse(R"({"op":"snapshot"})"));
  EXPECT_GT(flat.get_number("generation"), 0.0);
  EXPECT_EQ(flat.at("users").size(), 2u);
  EXPECT_FALSE(flat.find("tree").has_value());  // tree only on request

  const json::Value with_tree =
      bus.call("site0.fcs", json::parse(R"({"op":"snapshot","tree":true})"));
  EXPECT_TRUE(with_tree.find("tree").has_value());
  EXPECT_DOUBLE_EQ(with_tree.get_number("generation"), flat.get_number("generation"));
}

TEST_F(ServicesTest, PdsPolicyVersionShortCircuit) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}}));

  // Plain replies carry no version stamp (wire-identical to before).
  const json::Value plain = bus.call("site0.pds", json::parse(R"({"op":"policy"})"));
  EXPECT_FALSE(plain.find("version").has_value());

  const json::Value full =
      bus.call("site0.pds", json::parse(R"({"op":"policy","if_version":0})"));
  const double version = full.get_number("version");
  EXPECT_GT(version, 0.0);
  EXPECT_TRUE(full.find("children").has_value());

  json::Object repeat;
  repeat["op"] = std::string("policy");
  repeat["if_version"] = version;
  const json::Value unchanged = bus.call("site0.pds", json::Value(std::move(repeat)));
  EXPECT_TRUE(unchanged.get_bool("unchanged"));
  EXPECT_FALSE(unchanged.find("children").has_value());

  // A policy edit bumps the version and the short-circuit stops firing.
  pds.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  json::Object again;
  again["op"] = std::string("policy");
  again["if_version"] = version;
  const json::Value refreshed = bus.call("site0.pds", json::Value(std::move(again)));
  EXPECT_GT(refreshed.get_number("version"), version);
  EXPECT_FALSE(refreshed.find("unchanged").has_value());
  EXPECT_TRUE(refreshed.find("children").has_value());
}

TEST_F(ServicesTest, IrsLookupTableAndStoreOp) {
  Irs irs(simulator, bus, "site0");
  irs.add_mapping("clusterA", "acct_1", "GridUserOne");
  EXPECT_EQ(irs.resolve("clusterA", "acct_1"), "GridUserOne");
  EXPECT_FALSE(irs.resolve("clusterA", "acct_2").has_value());
  EXPECT_FALSE(irs.resolve("clusterB", "acct_1").has_value());  // per-cluster

  const json::Value stored = bus.call(
      "site0.irs",
      json::parse(R"({"op":"store","cluster":"c","system_user":"s","grid_user":"G"})"));
  EXPECT_TRUE(stored.get_bool("ok"));
  const json::Value resolved = bus.call(
      "site0.irs", json::parse(R"({"op":"resolve","cluster":"c","system_user":"s"})"));
  EXPECT_EQ(resolved.get_string("grid_user"), "G");
}

TEST_F(ServicesTest, IrsCustomEndpointQueriedOnMiss) {
  Irs irs(simulator, bus, "site0");
  int endpoint_calls = 0;
  bus.bind("subhost.resolver", [&](const json::Value& query) -> json::Value {
    ++endpoint_calls;
    if (query.get_string("system_user") == "acct_x") {
      return json::Value(json::Object{{"grid_user", json::Value("X")}});
    }
    return json::Value(json::Object{{"unknown", json::Value(true)}});
  });
  irs.set_endpoint("subhost.resolver");

  EXPECT_EQ(irs.resolve("c", "acct_x"), "X");
  EXPECT_EQ(endpoint_calls, 1);
  // Second lookup is served from the cached table.
  EXPECT_EQ(irs.resolve("c", "acct_x"), "X");
  EXPECT_EQ(endpoint_calls, 1);
  // Unknown users stay unknown and are re-queried.
  EXPECT_FALSE(irs.resolve("c", "acct_y").has_value());
  EXPECT_FALSE(irs.resolve("c", "acct_y").has_value());
  EXPECT_EQ(endpoint_calls, 3);
}

TEST_F(ServicesTest, EndToEndUsageFlowAcrossTwoSites) {
  Installation a(simulator, bus, "siteA");
  Installation b(simulator, bus, "siteB");
  const auto policy = flat_policy({{"alice", 0.5}, {"bob", 0.5}});
  a.set_policy(policy);
  b.set_policy(policy);
  a.set_peer_sites({"siteA", "siteB"});
  b.set_peer_sites({"siteA", "siteB"});

  // alice burns cycles on site A only; site B must still see it.
  a.uss().report("alice", 500.0);
  simulator.run_until(120.0);
  EXPECT_LT(b.fcs().factor_for("alice"), 0.5);
  EXPECT_GT(b.fcs().factor_for("bob"), 0.5);
}

TEST_F(ServicesTest, HierarchicalPolicyWithRemoteMountEndToEnd) {
  // A site delegates 40% to a grid whose subdivision lives on a remote
  // PDS; usage reported for a user inside the mounted subtree must be
  // mapped to its full path and reflected in the FCS values.
  Pds grid_office(simulator, bus, "office");
  core::PolicyTree grid_policy;
  grid_policy.set_share("/projA/ana", 1.0);
  grid_policy.set_share("/projA/ben", 1.0);
  grid_policy.set_share("/projB/cho", 2.0);
  grid_office.set_policy(grid_policy);

  InstallationConfig no_decay;
  no_decay.ums.decay.kind = core::DecayKind::kNone;
  Installation site(simulator, bus, "siteA", no_decay);
  core::PolicyTree local;
  local.set_share("/staff", 0.6);
  site.set_policy(local);
  site.pds().mount_remote("/grid", "office.pds", 0.4, 600.0);
  simulator.run_until(5.0);
  ASSERT_TRUE(site.pds().policy().contains("/grid/projA/ana"));

  // ana burns heavily inside projA; ben is idle.
  site.uss().report("ana", 900.0);
  site.uss().report("cho", 100.0);
  simulator.run_until(100.0);

  // UMS mapped users into the mounted hierarchy.
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid/projA/ana"), 900.0);
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid"), 1000.0);

  // Within projA, ben (idle) outranks ana; staff (idle) outranks both.
  EXPECT_GT(site.fcs().factor_for("ben"), site.fcs().factor_for("ana"));
  EXPECT_GT(site.fcs().factor_for("staff"), site.fcs().factor_for("ana"));
  // Vectors reach full tree depth (3 levels), padded for /staff.
  const json::Value reply =
      bus.call("siteA.fcs", json::parse(R"({"op":"fairshare","user":"ana"})"));
  EXPECT_EQ(util::split(reply.get_string("vector"), '.').size(), 3u);
}

TEST_F(ServicesTest, NonContributingSiteIsInvisibleRemotely) {
  Installation a(simulator, bus, "siteA");
  Installation b(simulator, bus, "siteB");
  const auto policy = flat_policy({{"alice", 0.5}, {"bob", 0.5}});
  a.set_policy(policy);
  b.set_policy(policy);
  a.set_peer_sites({"siteA", "siteB"});
  b.set_peer_sites({"siteA", "siteB"});
  bus.set_site_contributes("siteA", false);

  a.uss().report("alice", 500.0);
  simulator.run_until(120.0);
  // Site B never learns about alice's usage: both users look equally idle.
  EXPECT_DOUBLE_EQ(b.fcs().factor_for("alice"), b.fcs().factor_for("bob"));
  // ...but site A itself still accounts for it (reads stay local).
  EXPECT_LT(a.fcs().factor_for("alice"), 0.5);
  EXPECT_LT(a.fcs().factor_for("alice"), a.fcs().factor_for("bob"));
}

TEST_F(ServicesTest, TelemetryCountsKnownAndUnknownOps) {
  obs::Registry registry;
  ServiceTelemetry telemetry({&registry, nullptr}, simulator, "siteA", "uss",
                             {"report", "usage", "snapshot"});
  telemetry.hit("report");
  telemetry.hit("report");
  telemetry.hit("usage");
  telemetry.hit("bogus");  // undeclared: lands in ops.other
  telemetry.hit("");       // so does the empty op

  const obs::Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("siteA.uss.requests"), 5u);
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.report"), 2u);
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.usage"), 1u);
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.snapshot"), 0u);  // declared, unused
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.other"), 2u);
}

TEST_F(ServicesTest, DetachedTelemetryIsANoOp) {
  ServiceTelemetry detached;
  detached.hit("report");  // must not crash; nothing to count
  EXPECT_EQ(detached.counter("anything"), nullptr);
  EXPECT_FALSE(detached.tracing());
}

}  // namespace
}  // namespace aequus::services
