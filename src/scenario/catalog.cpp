#include "scenario/catalog.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef AEQUUS_SCENARIO_CATALOG_DIR
#define AEQUUS_SCENARIO_CATALOG_DIR ""
#endif

namespace aequus::scenario {

std::string catalog_dir() {
  if (const char* env = std::getenv("AEQUUS_SCENARIO_DIR"); env && *env) return env;
  return AEQUUS_SCENARIO_CATALOG_DIR;
}

std::vector<std::string> list_catalog(const std::string& dir) {
  const std::string root = dir.empty() ? catalog_dir() : dir;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end(), [](const std::string& a, const std::string& b) {
    return std::filesystem::path(a).filename() < std::filesystem::path(b).filename();
  });
  return paths;
}

std::string resolve_spec(const std::string& spec, const std::string& dir) {
  if (std::filesystem::exists(spec)) return spec;
  const std::filesystem::path named =
      std::filesystem::path(dir.empty() ? catalog_dir() : dir) / (spec + ".json");
  return std::filesystem::exists(named) ? named.string() : spec;
}

ScenarioSpec load_spec_file(const std::string& path) {
  const std::string filename = std::filesystem::path(path).filename().string();
  std::ifstream in(path);
  if (!in) throw SpecError(filename + ": cannot open file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_spec_text(buffer.str());
  } catch (const SpecError& error) {
    throw SpecError(filename + ": " + error.what());
  }
}

void apply_env_scale(CompileOptions& options) {
  const char* env = std::getenv("AEQUUS_SCENARIO_SCALE");
  if (!env || !*env) return;
  char* end = nullptr;
  const double scale = std::strtod(env, &end);
  if (end == env || scale <= 0.0 || scale > 1.0) return;
  options.jobs_scale *= scale;
  options.time_scale *= scale;
}

}  // namespace aequus::scenario
