// Catalog access: locating and loading the shipped scenarios/*.json.
//
// The build stamps the source-tree catalog path into the library
// (AEQUUS_SCENARIO_CATALOG_DIR), so tests and tools find the catalog
// without a working-directory convention; AEQUUS_SCENARIO_DIR overrides
// it at run time (e.g. for an installed tree or a test fixture dir).
#pragma once

#include <string>
#include <vector>

#include "scenario/compile.hpp"
#include "scenario/spec.hpp"

namespace aequus::scenario {

/// The catalog directory: $AEQUUS_SCENARIO_DIR if set, else the path
/// compiled in from the source tree.
[[nodiscard]] std::string catalog_dir();

/// Absolute paths of every *.json in `dir` (default: catalog_dir()),
/// sorted by filename so catalog order is stable across platforms.
[[nodiscard]] std::vector<std::string> list_catalog(const std::string& dir = {});

/// A spec argument is a file path, or a bare catalog name resolved to
/// <dir>/<name>.json (dir defaults to catalog_dir()) when no such file
/// exists. Unresolvable names come back unchanged, so load_spec_file
/// reports them as unopenable.
[[nodiscard]] std::string resolve_spec(const std::string& spec, const std::string& dir = {});

/// Read and parse one spec file. SpecError messages are prefixed with the
/// file name ("fig10_baseline.json: $.phases[0].end: ...").
[[nodiscard]] ScenarioSpec load_spec_file(const std::string& path);

/// Fold $AEQUUS_SCENARIO_SCALE (a fraction in (0, 1]) into `options`:
/// multiplies jobs_scale and time_scale. Unset, empty, or out-of-range
/// values leave `options` unchanged. Lets CI compress the whole catalog
/// without editing specs or test code.
void apply_env_scale(CompileOptions& options);

}  // namespace aequus::scenario
