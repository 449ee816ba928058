// The shared testbed-bench layer (bench/common): strict argument parsing,
// catalog sizing, and the output step all nine testbed benches end with.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace aequus;

bench::BenchArgs parse(std::vector<std::string> words) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  return bench::parse_bench_args(static_cast<int>(argv.size()), argv.data(), 0, 0);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(BenchArgs, SeedTakesTheFormBenchFilesRecord) {
  EXPECT_EQ(parse({"--seed", "0x7de"}).root_seed, 2014u);
  EXPECT_EQ(parse({"--seed", "2014"}).root_seed, 2014u);
  EXPECT_EQ(parse({"--seed", "010"}).root_seed, 8u) << "C prefixes, as strtoull(.., 0)";
  EXPECT_TRUE(parse({"--seed", "0"}).root_seed_given);
  EXPECT_FALSE(parse({}).root_seed_given);
  EXPECT_EXIT((void)parse({"--seed", "0x"}), ::testing::ExitedWithCode(2),
              "--seed: invalid number '0x'");
  EXPECT_EXIT((void)parse({"--seed", "7de"}), ::testing::ExitedWithCode(2),
              "--seed: invalid number '7de'");
  EXPECT_EXIT((void)parse({"--seed", "09"}), ::testing::ExitedWithCode(2),
              "--seed: invalid number '09'");
}

TEST(BenchArgs, MalformedValuesAreUsageErrors) {
  EXPECT_EQ(parse({"120", "--threads", "2", "--reps", "3"}).jobs, 120u);
  EXPECT_EXIT((void)parse({"80x0"}), ::testing::ExitedWithCode(2), "jobs: invalid number");
  EXPECT_EXIT((void)parse({"--threads", "2x"}), ::testing::ExitedWithCode(2),
              "--threads: invalid number");
  EXPECT_EXIT((void)parse({"--reps"}), ::testing::ExitedWithCode(2), "--reps: missing value");
  EXPECT_EXIT((void)parse({"--metrics", "m.json"}), ::testing::ExitedWithCode(2),
              "unknown option '--metrics'");
}

TEST(CompileCatalog, JobCountReplacesTheSpecSize) {
  bench::BenchArgs args;
  args.jobs = 2400;  // fault_recovery.json declares 2,000
  const scenario::CompiledScenario above = bench::compile_catalog("fault_recovery", args);
  EXPECT_EQ(above.jobs, 2400u);
  for (const testbed::SweepVariant& variant : above.sweep.variants) {
    EXPECT_EQ(variant.scenario.trace.size(), 2400u) << variant.name;
  }
  args.jobs = 0;
  EXPECT_EQ(bench::compile_catalog("fault_recovery", args).jobs, 2000u)
      << "0 keeps the spec's size";
}

TEST(WriteOutputs, HonoursJsonDirAndTrace) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "bench_common_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  bench::BenchArgs args;
  args.jobs = 40;
  args.replications = 1;
  args.threads = 2;
  args.json_dir = dir.string();
  args.trace_path = (dir / "trace.jsonl").string();
  args.trace_cap = 4096;

  const scenario::CompiledScenario compiled = bench::compile_catalog("fault_recovery", args);
  const testbed::SweepResult result = testbed::run_sweep(compiled.sweep);
  bench::write_outputs(args, compiled, result);

  const json::Value report = json::parse(read_file(dir / "BENCH_fault_recovery.json"));
  EXPECT_EQ(report.at("jobs").as_int(), 40) << "the count that ran";
  EXPECT_EQ(report.at("root_seed").as_string(), "0x7de");
  EXPECT_EQ(report.at("tasks").size(), compiled.sweep.task_count());
  EXPECT_EQ(report.at("variants").size(), compiled.sweep.variants.size());
  // One traced replication per variant, each with its per-hop scalars.
  for (const testbed::SweepVariant& variant : compiled.sweep.variants) {
    EXPECT_TRUE(report.at("extra").find("trace." + variant.name + ".complete_chains"))
        << variant.name;
  }
  EXPECT_FALSE(read_file(args.trace_path).empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
