// Quickstart: the fairshare calculation in isolation (Figure 1's flow).
//
//   1. define a policy tree (target shares),
//   2. record historical usage,
//   3. run the fairshare algorithm,
//   4. extract per-user fairshare vectors,
//   5. project them to the [0,1] priority factors an RM consumes.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/engine.hpp"
#include "core/projection.hpp"

int main() {
  using namespace aequus::core;

  // 1. Policy: a grid gets 70% of the machine, a local queue 30%. Inside
  //    the grid, projects A and B split 50/50; alice owns 60% of A.
  PolicyTree policy;
  policy.set_share("/grid", 0.7);
  policy.set_share("/grid/projA", 0.5);
  policy.set_share("/grid/projB", 0.5);
  policy.set_share("/grid/projA/alice", 0.6);
  policy.set_share("/grid/projA/bob", 0.4);
  policy.set_share("/grid/projB/carol", 1.0);
  policy.set_share("/local", 0.3);

  // 2. Usage: alice has been hammering the machine; carol barely used it.
  UsageTree usage;
  usage.add("/grid/projA/alice", 5000.0);  // core-seconds
  usage.add("/grid/projA/bob", 800.0);
  usage.add("/grid/projB/carol", 150.0);
  usage.add("/local", 2000.0);

  // 3. Fairshare: k weighs the relative vs absolute distance metrics
  //    (paper default 0.5); resolution sets the vector encoding range.
  const FairshareConfig fairshare{0.5, kDefaultResolution};
  const FairshareSnapshotPtr tree = FairshareEngine::compute_once(fairshare, policy, usage);

  // 4. Vectors: one element per hierarchy level, balance point = 5000.
  std::printf("fairshare vectors (0-9999, balance 5000):\n");
  for (const auto& path : tree->user_paths()) {
    std::printf("  %-22s %s\n", path.c_str(), tree->vector_for(path)->to_string().c_str());
  }

  // 5. Projection: percental (the production configuration).
  std::printf("\npercental priority factors (0.5 = perfectly balanced):\n");
  for (const auto& [path, value] : project(*tree, {ProjectionKind::kPercental, 8})) {
    std::printf("  %-22s %.4f\n", path.c_str(), value);
  }

  std::printf("\ncarol is under her share -> factor above 0.5; alice is over -> below.\n");
  return 0;
}
