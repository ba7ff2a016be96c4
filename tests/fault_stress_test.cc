// Randomized fault-injection stress harness (the ISSUE's acceptance gate):
// sweep many fault seeds through the full pipeline, the artifact store and
// the serve snapshot store, and assert the three robustness invariants
// under every seed —
//   1. no crash: every run ends in ok() or a typed Status,
//   2. no torn state: artifact and snapshot directories always load in
//      full, as the new or the previous generation; no `.tmp` / `.old`
//      staging residue survives,
//   3. no silent drift: a run where no fault fired is bitwise identical to
//      the injector-off baseline.
// Seed count defaults to 50; CI and local soak runs override it with
// GRGAD_STRESS_SEEDS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/pipeline.h"
#include "src/core/run_context.h"
#include "src/data/example_graph.h"
#include "src/serve/wal.h"
#include "src/tensor/matrix.h"
#include "src/util/fault.h"
#include "src/util/status.h"

namespace grgad {
namespace {

namespace fs = std::filesystem;

int StressSeeds() {
  const char* env = std::getenv("GRGAD_STRESS_SEEDS");
  if (env == nullptr || env[0] == '\0') return 50;
  const int n = std::atoi(env);
  return n > 0 ? n : 50;
}

TpGrGadOptions QuickOptions(uint64_t seed = 42) {
  TpGrGadOptions options;
  options.seed = seed;
  options.mh_gae.base.epochs = 10;
  options.mh_gae.base.hidden_dim = 16;
  options.mh_gae.base.embed_dim = 8;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 8;
  options.tpgcl.hidden_dim = 16;
  options.tpgcl.embed_dim = 8;
  options.ReseedStages();
  return options;
}

fs::path TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("grgad_stress_" + name);
  fs::remove_all(dir);
  return dir;
}

bool ArtifactsIdentical(const PipelineArtifacts& a,
                        const PipelineArtifacts& b) {
  if (a.anchors != b.anchors || a.candidate_groups != b.candidate_groups ||
      a.group_scores != b.group_scores ||
      a.gae_node_errors != b.gae_node_errors ||
      a.tpgcl_loss_history != b.tpgcl_loss_history ||
      a.group_embeddings.rows() != b.group_embeddings.rows() ||
      a.group_embeddings.cols() != b.group_embeddings.cols() ||
      a.scored_groups.size() != b.scored_groups.size()) {
    return false;
  }
  for (size_t i = 0; i < a.group_embeddings.rows(); ++i) {
    for (size_t j = 0; j < a.group_embeddings.cols(); ++j) {
      if (a.group_embeddings(i, j) != b.group_embeddings(i, j)) return false;
    }
  }
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    if (a.scored_groups[i].nodes != b.scored_groups[i].nodes ||
        a.scored_groups[i].score != b.scored_groups[i].score) {
      return false;
    }
  }
  return true;
}

class FaultStressTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disable(); }
};

TEST_F(FaultStressTest, PipelineSurvivesEveryFaultSeed) {
  const Dataset d = GenExampleGraph({});
  FaultInjector::Global().Disable();
  const auto baseline = TpGrGad(QuickOptions(7)).TryRun(d.graph);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const int seeds = StressSeeds();
  int faulted_runs = 0;
  int clean_runs = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    ASSERT_TRUE(FaultInjector::Global()
                    .Configure("seed=" + std::to_string(seed) + ",rate=0.02")
                    .ok());
    RunContext ctx;
    const auto result = TpGrGad(QuickOptions(7)).TryRun(d.graph, &ctx);
    const uint64_t fired = FaultInjector::Global().fired_count();
    FaultInjector::Global().Disable();

    if (!result.ok()) {
      // Invariant 1: a faulted run unwinds into a typed, non-empty status.
      EXPECT_NE(result.status().code(), StatusCode::kOk) << "seed " << seed;
      EXPECT_FALSE(result.status().message().empty()) << "seed " << seed;
      ++faulted_runs;
      continue;
    }
    if (fired == 0) {
      // Invariant 3: the armed-but-quiet injector must not perturb results.
      EXPECT_TRUE(ArtifactsIdentical(result.value(), baseline.value()))
          << "seed " << seed << " diverged from baseline without any fault";
      ++clean_runs;
    }
  }
  // rate=0.02 across hundreds of checks makes both outcomes near-certain
  // over >= 50 seeds; a zero here means the harness stopped exercising one
  // side of the contract.
  if (seeds >= 50) {
    EXPECT_GT(faulted_runs, 0) << "no seed injected any fault";
  }
  (void)clean_runs;
}

TEST_F(FaultStressTest, ArtifactStoreSurvivesEveryFaultSeed) {
  const fs::path dir = TempDir("artifacts");
  const Dataset d = GenExampleGraph({});
  FaultInjector::Global().Disable();
  const auto baseline = TpGrGad(QuickOptions(7)).TryRun(d.graph);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Known-good artifacts on disk; every faulted save must either replace
  // them in full or leave them byte-for-byte loadable.
  ASSERT_TRUE(SaveArtifacts(baseline.value(), dir.string()).ok());
  PipelineArtifacts next = baseline.value();

  const int seeds = StressSeeds();
  int failed_saves = 0;
  int committed_saves = 0;
  uint64_t committed_seed = baseline.value().seed;
  for (int seed = 0; seed < seeds; ++seed) {
    next.seed = static_cast<uint64_t>(seed + 1000);  // Distinguishable write.
    ASSERT_TRUE(
        FaultInjector::Global()
            .Configure("seed=" + std::to_string(seed) +
                       ",artifact/write=0.2,artifact/fsync=0.1,"
                       "artifact/rename=0.2,artifact/read=0.1")
            .ok());
    const Status save = SaveArtifacts(next, dir.string());
    FaultInjector::Global().Disable();

    // Invariant 2: no staging residue either way.
    EXPECT_FALSE(fs::exists(dir.string() + ".tmp")) << "seed " << seed;
    EXPECT_FALSE(fs::exists(dir.string() + ".old")) << "seed " << seed;

    const auto loaded = LoadArtifacts(dir.string());
    ASSERT_TRUE(loaded.ok())
        << "seed " << seed << ": " << loaded.status().ToString();
    if (save.ok()) {
      EXPECT_EQ(loaded.value().seed, next.seed) << "seed " << seed;
      committed_seed = next.seed;
      ++committed_saves;
    } else {
      EXPECT_FALSE(save.message().empty()) << "seed " << seed;
      // The directory holds exactly the previous committed generation —
      // never a mixture of old and new.
      EXPECT_EQ(loaded.value().seed, committed_seed) << "seed " << seed;
      EXPECT_TRUE(ArtifactsIdentical(loaded.value(), next))
          << "seed " << seed << " left torn artifact contents";
      ++failed_saves;
    }
  }
  if (seeds >= 50) {
    EXPECT_GT(failed_saves, 0) << "fault rates never failed a save";
    EXPECT_GT(committed_saves, 0) << "fault rates never allowed a save";
  }
  fs::remove_all(dir);
}

TEST_F(FaultStressTest, ServeSnapshotSurvivesEveryFaultSeed) {
  // The nested layout: one ReplaceDir staging <state>/snapshot.tmp that holds
  // a manifest directory, an artifact store inside it, and the snapshot/mid
  // kill point between the two.
  const fs::path state_dir = TempDir("snapshot");
  const std::string snap_dir = (state_dir / "snapshot").string();
  const Dataset d = GenExampleGraph({});
  FaultInjector::Global().Disable();
  const auto trained = TpGrGad(QuickOptions(7)).TryRun(d.graph);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ServeStateSnapshot state;
  state.dirty_anchor_indices = {0, 2};

  // A committed snapshot at wal_seq 0; each seed tries to replace it with
  // one whose wal_seq names the seed.
  ASSERT_TRUE(SaveServeSnapshot(state_dir.string(), d.graph, trained.value(),
                                state, 0)
                  .ok());
  const int seeds = StressSeeds();
  int failed_saves = 0;
  int committed_saves = 0;
  uint64_t committed_seq = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    const uint64_t seq = static_cast<uint64_t>(seed) + 1;
    ASSERT_TRUE(FaultInjector::Global()
                    .Configure("seed=" + std::to_string(seed) +
                               ",artifact/write=0.05,artifact/fsync=0.05,"
                               "artifact/rename=0.1,snapshot/mid=0.1")
                    .ok());
    const Status save = SaveServeSnapshot(state_dir.string(), d.graph,
                                          trained.value(), state, seq);
    FaultInjector::Global().Disable();

    EXPECT_FALSE(fs::exists(snap_dir + ".tmp")) << "seed " << seed;
    EXPECT_FALSE(fs::exists(snap_dir + ".old")) << "seed " << seed;

    // Either the new snapshot committed, or the previous one still loads.
    const auto loaded = LoadServeSnapshot(state_dir.string());
    ASSERT_TRUE(loaded.ok())
        << "seed " << seed << ": " << loaded.status().ToString();
    if (save.ok()) {
      committed_seq = seq;
      ++committed_saves;
    } else {
      EXPECT_FALSE(save.message().empty()) << "seed " << seed;
      ++failed_saves;
    }
    EXPECT_EQ(loaded.value().wal_seq, committed_seq) << "seed " << seed;
    EXPECT_TRUE(ArtifactsIdentical(loaded.value().artifacts, trained.value()))
        << "seed " << seed << " left torn snapshot artifacts";
    EXPECT_EQ(loaded.value().state.dirty_anchor_indices,
              state.dirty_anchor_indices)
        << "seed " << seed;
    EXPECT_EQ(loaded.value().graph.num_edges(), d.graph.num_edges())
        << "seed " << seed;
  }
  if (seeds >= 50) {
    EXPECT_GT(failed_saves, 0) << "fault rates never failed a snapshot";
    EXPECT_GT(committed_saves, 0) << "fault rates never allowed a snapshot";
  }
  fs::remove_all(state_dir);
}

}  // namespace
}  // namespace grgad
