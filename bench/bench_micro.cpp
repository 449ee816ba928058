// Microbenchmarks (google-benchmark) for the performance-critical paths:
// fairshare tree computation (the FCS pre-calculation the paper relies on
// to avoid real-time work), projections, vector operations, decay
// evaluation, JSON wire handling, cached libaequus lookups, and synthetic
// trace generation.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/projection.hpp"
#include "json/json.hpp"
#include "libaequus/client.hpp"
#include "obs/trace.hpp"
#include "services/installation.hpp"
#include "stats/families.hpp"
#include "stats/fit.hpp"
#include "stats/ks.hpp"

using namespace aequus;

namespace {

core::PolicyTree flat_policy(int users) {
  core::PolicyTree policy;
  for (int i = 0; i < users; ++i) {
    policy.set_share(util::format("/group%d/user%d", i % 16, i), 1.0 + i % 7);
  }
  return policy;
}

core::UsageTree usage_for(int users, util::Rng& rng) {
  core::UsageTree usage;
  for (int i = 0; i < users; ++i) {
    usage.add(util::format("/group%d/user%d", i % 16, i), rng.uniform(1.0, 1000.0));
  }
  return usage;
}

void BM_ComputeOnce(benchmark::State& state) {
  const auto users = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const core::PolicyTree policy = flat_policy(users);
  const core::UsageTree usage = usage_for(users, rng);
  const core::FairshareAlgorithm algorithm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FairshareEngine::compute_once(
        algorithm.config(), policy, usage));
  }
  state.SetItemsProcessed(state.iterations() * users);
}
BENCHMARK(BM_ComputeOnce)->Arg(16)->Arg(256)->Arg(2048);

void BM_FairshareEngineDelta(benchmark::State& state) {
  // One usage delta + snapshot publish through the incremental engine —
  // the per-update cost that replaced BM_ComputeOnce's
  // whole-tree recompute in the FCS pre-calculation loop.
  const auto users = static_cast<int>(state.range(0));
  util::Rng rng(1);
  core::FairshareEngine engine({}, core::DecayConfig{core::DecayKind::kNone, 0.0, 0.0});
  engine.set_policy(flat_policy(users));
  engine.set_usage(usage_for(users, rng));
  (void)engine.snapshot();
  int i = 0;
  for (auto _ : state) {
    const int user = i++ % users;
    engine.apply_usage(util::format("/group%d/user%d", user % 16, user), 1.0, 0.0);
    benchmark::DoNotOptimize(engine.snapshot());
  }
  state.SetItemsProcessed(state.iterations() * users);
}
BENCHMARK(BM_FairshareEngineDelta)->Arg(16)->Arg(256)->Arg(2048);

void BM_Projection(benchmark::State& state) {
  const auto kind = static_cast<core::ProjectionKind>(state.range(0));
  util::Rng rng(1);
  const core::PolicyTree policy = flat_policy(512);
  const core::UsageTree usage = usage_for(512, rng);
  const core::FairshareSnapshotPtr tree = core::FairshareEngine::compute_once({}, policy, usage);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::project(*tree, {kind, 8}));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Projection)
    ->Arg(static_cast<int>(core::ProjectionKind::kDictionaryOrdering))
    ->Arg(static_cast<int>(core::ProjectionKind::kBitwiseVector))
    ->Arg(static_cast<int>(core::ProjectionKind::kPercental));

void BM_VectorCompare(benchmark::State& state) {
  const core::FairshareVector a({0.3, -0.2, 0.7, 0.1, -0.5});
  const core::FairshareVector b({0.3, -0.2, 0.7, 0.1, -0.4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VectorCompare);

void BM_DecayedTotal(benchmark::State& state) {
  const auto bins_count = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<double, double>> bins;
  for (std::size_t i = 0; i < bins_count; ++i) {
    bins.emplace_back(static_cast<double>(i) * 60.0, 10.0);
  }
  const core::Decay decay(
      core::DecayConfig{core::DecayKind::kExponentialHalfLife, 3600.0, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decay.decayed_total(bins, bins_count * 60.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(bins_count));
}
BENCHMARK(BM_DecayedTotal)->Arg(64)->Arg(1024);

void BM_JsonRoundTrip(benchmark::State& state) {
  util::Rng rng(2);
  core::UsageTree tree;
  for (int i = 0; i < 200; ++i) {
    tree.add(util::format("/g%d/u%d", i % 8, i), rng.uniform(0.0, 1e6));
  }
  const std::string wire = tree.to_json().dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::UsageTree::from_json(json::parse(wire)));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(wire.size()));
}
BENCHMARK(BM_JsonRoundTrip);

void BM_CachedFairshareLookup(benchmark::State& state) {
  sim::Simulator simulator;
  net::ServiceBus bus(simulator);
  services::Installation site(simulator, bus, "site0");
  core::PolicyTree policy;
  policy.set_share("/alice", 0.5);
  policy.set_share("/bob", 0.5);
  site.set_policy(std::move(policy));
  client::ClientConfig config;
  config.site = "site0";
  config.cluster = "site0";
  client::AequusClient client(simulator, bus, config);
  site.uss().report("alice", 100.0);
  simulator.run_until(120.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.fairshare_factor("alice"));
  }
}
BENCHMARK(BM_CachedFairshareLookup);

void BM_TraceGeneration(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto model = workload::NationalGridModel::paper_2012(21600.0);
  workload::GeneratorConfig config;
  config.total_jobs = jobs;
  for (auto _ : state) {
    config.seed++;
    benchmark::DoNotOptimize(workload::generate_trace(model, config));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(jobs));
}
BENCHMARK(BM_TraceGeneration)->Arg(1000)->Arg(10000);

void BM_TracerDisabledRecord(benchmark::State& state) {
  obs::Tracer tracer;  // default-constructed: tracing off
  double t = 0.0;
  for (auto _ : state) {
    tracer.record(t += 1.0, obs::EventKind::kMessageSend, "site0", "bus", "rpc:site0.fcs");
    benchmark::DoNotOptimize(&tracer);
  }
  // Micro-assert pinning the disabled fast path: a disabled record() is a
  // single branch, so nothing may have been buffered or interned — a
  // regression here taxes every bus message of every untraced run.
  if (tracer.event_count() != 0 || tracer.interned_count() != 0) std::abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerDisabledRecord);

void BM_TracerEnabledRecord(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.enable();
  tracer.set_capacity(1u << 16);  // steady-state ring rotation, no growth
  double t = 0.0;
  for (auto _ : state) {
    tracer.record(t += 1.0, obs::EventKind::kMessageSend, "site0", "bus", "rpc:site0.fcs");
  }
  benchmark::DoNotOptimize(tracer.event_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerEnabledRecord);

void BM_TracerSpanRoundTrip(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.enable();
  tracer.set_capacity(1u << 16);
  double t = 0.0;
  for (auto _ : state) {
    const obs::SpanContext span = tracer.begin_span(t, "site0", "bus", "rpc:site0.fcs");
    tracer.end_span(t + 0.5, span, "site0", "bus", "ok");
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerSpanRoundTrip);

void BM_KsTest(benchmark::State& state) {
  util::Rng rng(3);
  const stats::Weibull model(100.0, 0.8);
  std::vector<double> data;
  for (int i = 0; i < 5000; ++i) data.push_back(model.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_test(data, model));
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_KsTest);

void BM_GevMleFit(benchmark::State& state) {
  util::Rng rng(4);
  const stats::Gev model(-0.3, 20.0, 100.0);
  std::vector<double> data;
  for (int i = 0; i < 1000; ++i) data.push_back(model.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_mle(stats::Family::kGev, data));
  }
}
BENCHMARK(BM_GevMleFit);

}  // namespace

BENCHMARK_MAIN();
