// Figure 3: "the fairshare tree and a set of fairshare vectors extracted
// from the tree" — the worked example of §III-C, including the /LQ-style
// short path padded with the balance point (5000 in the 0-9999 range).
#include <cstdio>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/projection.hpp"
#include "util/table.hpp"

using namespace aequus;

namespace {
void print_node(const core::FairshareSnapshot::Node& node, const std::string& path, int depth) {
  std::printf("%*s%-12s policy %.3f  usage %.3f  distance %+.4f\n", depth * 2, "",
              node.name.c_str(), node.policy_share, node.usage_share, node.distance);
  for (const auto& child : node.children) {
    print_node(*child, path + "/" + child->name, depth + 1);
  }
}
}  // namespace

int main() {
  bench::print_banner("Figure 3: fairshare tree and extracted vectors",
                      "Espling et al., IPPS'14, Figure 3 / Section III-C");

  // A grid with two projects and a local queue (/LQ) that ends one level
  // above the leaves, mirroring the figure's structure.
  core::PolicyTree policy;
  policy.set_share("/grid", 0.7);
  policy.set_share("/grid/projA/alice", 0.6);
  policy.set_share("/grid/projA/bob", 0.4);
  policy.set_share("/grid/projB/carol", 1.0);
  policy.set_share("/grid/projA", 0.5);
  policy.set_share("/grid/projB", 0.5);
  policy.set_share("/LQ", 0.3);

  core::UsageTree usage;
  usage.add("/grid/projA/alice", 900.0);
  usage.add("/grid/projA/bob", 100.0);
  usage.add("/grid/projB/carol", 400.0);
  usage.add("/LQ", 200.0);

  const core::FairshareAlgorithm algorithm;  // k = 0.5, resolution 10000
  const core::FairshareSnapshotPtr tree =
      core::FairshareEngine::compute_once(algorithm.config(), policy, usage);

  std::printf("annotated fairshare tree (policy/usage shares sibling-normalized):\n\n");
  print_node(tree->root(), "", 0);

  std::printf("\nextracted fairshare vectors (range 0-9999, balance point 5000):\n\n");
  util::Table table({"Path", "Vector", "Depth", "Padded"});
  for (const auto& path : tree->user_paths()) {
    const auto vector = tree->vector_for(path);
    const bool padded = core::split_path(path).size() <
                        static_cast<std::size_t>(tree->depth());
    table.add_row({path, vector->to_string(), util::format("%zu", vector->depth()),
                   padded ? "yes (balance point)" : "no"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("projections of the same tree:\n\n");
  util::Table proj({"Path", "Dictionary", "Bitwise(8)", "Percental"});
  const auto dict = core::project(*tree, {core::ProjectionKind::kDictionaryOrdering, 8});
  const auto bits = core::project(*tree, {core::ProjectionKind::kBitwiseVector, 8});
  const auto perc = core::project(*tree, {core::ProjectionKind::kPercental, 8});
  for (const auto& path : tree->user_paths()) {
    proj.add_row({path, util::format("%.4f", dict.at(path)),
                  util::format("%.4f", bits.at(path)),
                  util::format("%.4f", perc.at(path))});
  }
  std::printf("%s", proj.render().c_str());
  return 0;
}
