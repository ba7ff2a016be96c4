// Shared harness for the table/figure reproduction benches.
//
// Every bench binary prints the same rows/series its paper counterpart
// reports and writes a CSV under ./bench_results/. Two modes:
//   quick (default): 1 seed, reduced epochs/candidate budgets — minutes.
//   full (GRGAD_BENCH_FULL=1): 3 seeds, paper-scale settings.
// Absolute values differ from the paper's testbed (synthetic data, CPU
// simulator); the *shape* — method ranking, CR gap, ablation ordering — is
// what these benches reproduce (see README.md, "Repro benches").
#ifndef GRGAD_BENCH_BENCH_COMMON_H_
#define GRGAD_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/method_registry.h"
#include "src/core/pipeline.h"
#include "src/data/registry.h"
#include "src/util/check.h"
#include "src/util/csv.h"
#include "src/util/timer.h"

namespace grgad::bench {

/// Global bench configuration derived from the environment.
struct BenchConfig {
  bool full = false;
  int seeds = 1;
  int gae_epochs = 40;
  int tpgcl_epochs = 30;
  int max_candidate_groups = 800;

  static BenchConfig FromEnv() {
    BenchConfig config;
    const char* env = std::getenv("GRGAD_BENCH_FULL");
    config.full = (env != nullptr && env[0] == '1');
    if (config.full) {
      config.seeds = 3;
      config.gae_epochs = 80;
      config.tpgcl_epochs = 60;
      config.max_candidate_groups = 1600;
    }
    return config;
  }
};

/// The five evaluation datasets in Table I order.
inline std::vector<std::string> BenchDatasets() {
  return {"simml", "cora-group", "citeseer-group", "amlpublic", "ethereum"};
}

/// Builds a bench dataset instance (seeded 42 + offset per bench seed).
/// Prints the failure and returns false for unknown names.
inline bool LoadBenchDataset(const std::string& name, Dataset* out,
                             uint64_t seed = 42) {
  DatasetOptions options;
  options.seed = seed;
  auto result = MakeDataset(name, options);
  if (!result.ok()) {
    std::printf("failed to build %s: %s\n", name.c_str(),
                result.status().ToString().c_str());
    return false;
  }
  *out = std::move(result).value();
  return true;
}

/// The registry override strings configuring one method for this bench
/// config ("tpgcl.epochs=30"-style; see core/method_registry.h).
inline std::vector<std::string> MethodOverrides(const BenchConfig& config,
                                                const std::string& name) {
  if (name == "tp-grgad") {
    return {"mh_gae.epochs=" + std::to_string(config.gae_epochs),
            "tpgcl.epochs=" + std::to_string(config.tpgcl_epochs),
            "tpgcl.neg_per_sample=16",
            "sampler.max_groups=" +
                std::to_string(config.max_candidate_groups)};
  }
  // Every baseline trains its underlying autoencoder for the same budget.
  return {"epochs=" + std::to_string(config.gae_epochs)};
}

/// Builds the configured TP-GrGAD options for one (config, seed) pair.
inline TpGrGadOptions MakeTpGrGadOptions(const BenchConfig& config,
                                         uint64_t seed) {
  auto options =
      BuildTpGrGadOptions(seed, MethodOverrides(config, "tp-grgad"));
  GRGAD_CHECK(options.ok());
  return std::move(options).value();
}

/// All six Table III methods, freshly constructed per seed through the
/// method registry (which applies the historical per-method seed XORs).
inline std::vector<std::unique_ptr<GroupDetector>> MakeAllMethods(
    const BenchConfig& config, uint64_t seed) {
  std::vector<std::unique_ptr<GroupDetector>> methods;
  for (const std::string& name : ListMethods()) {
    MethodOptions method_options;
    method_options.seed = seed;
    method_options.overrides = MethodOverrides(config, name);
    auto method = MakeGroupDetector(name, method_options);
    GRGAD_CHECK(method.ok());
    methods.push_back(std::move(method).value());
  }
  return methods;
}

/// Ensures ./bench_results exists and returns "bench_results/<name>".
inline std::string ResultPath(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  return "bench_results/" + name;
}

/// Writes the CSV and reports where it went.
inline void EmitCsv(const CsvWriter& csv, const std::string& name) {
  const std::string path = ResultPath(name);
  const Status s = csv.WriteFile(path);
  if (s.ok()) {
    std::printf("  -> wrote %s\n", path.c_str());
  } else {
    std::printf("  !! could not write %s: %s\n", path.c_str(),
                s.ToString().c_str());
  }
}

/// Section banner.
inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace grgad::bench

#endif  // GRGAD_BENCH_BENCH_COMMON_H_
