// Determinism contract of the rebuilt candidate stage (PERF.md, "Candidate
// stage"):
//   - GroupSampler::Sample output — groups, order, and the seeded
//     subsample draw — is bitwise identical to the frozen serial seed
//     sampler (GroupSampler::SampleReference), in every path-search mode;
//   - Sample is invariant across GRGAD_THREADS and across repeated runs
//     (pooled workspaces carry no state between calls);
//   - TPGCL's view-based batch build is bitwise identical to the batch
//     built from InducedSubgraph copies;
//   - the candidate stage reports candidates/* sub-stage timings under
//     profile telemetry;
//   - steady-state sampling performs zero workspace heap allocations.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/gcl/tpgcl.h"
#include "src/graph/traversal_workspace.h"
#include "src/sampling/group_sampler.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

using testing::BitwiseEqual;
using testing::ScopedDegree;

/// The paper's example graph plus a dense anchor set (planted group members
/// and a sweep) — enough anchors that every search branch fires.
struct Fixture {
  Dataset dataset;
  std::vector<int> anchors;
};

Fixture MakeFixture() {
  Fixture f;
  f.dataset = GenExampleGraph({});
  std::set<int> anchors;
  for (const auto& group : f.dataset.anomaly_groups) {
    anchors.insert(group.front());
    anchors.insert(group[group.size() / 2]);
    anchors.insert(group.back());
  }
  for (int v = 0; v < f.dataset.graph.num_nodes(); v += 5) anchors.insert(v);
  f.anchors.assign(anchors.begin(), anchors.end());
  return f;
}

GroupSamplerOptions ModeOptions(PathSearchMode mode) {
  GroupSamplerOptions options;
  options.path_mode = mode;
  return options;
}

TEST(CandidateDeterminismTest, SampleMatchesReferenceInEveryMode) {
  const Fixture f = MakeFixture();
  for (PathSearchMode mode :
       {PathSearchMode::kUnweighted, PathSearchMode::kAttributeDistance,
        PathSearchMode::kGraphSnnWeighted}) {
    GroupSampler sampler(ModeOptions(mode));
    const auto want = sampler.SampleReference(f.dataset.graph, f.anchors);
    const auto got = sampler.Sample(f.dataset.graph, f.anchors);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want) << "mode=" << static_cast<int>(mode);
  }
}

TEST(CandidateDeterminismTest, SampleInvariantAcrossThreadsAndRuns) {
  const Fixture f = MakeFixture();
  GroupSampler sampler(ModeOptions(PathSearchMode::kAttributeDistance));
  std::vector<std::vector<int>> reference;
  {
    ScopedDegree degree(1);
    reference = sampler.Sample(f.dataset.graph, f.anchors);
  }
  ASSERT_FALSE(reference.empty());
  for (int degree : {2, 4}) {
    ScopedDegree scoped(degree);
    EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors), reference)
        << "degree=" << degree;
    // Repeated run with warm pooled workspaces.
    EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors), reference);
  }
}

TEST(CandidateDeterminismTest, SubsampleDrawIsPreserved) {
  const Fixture f = MakeFixture();
  GroupSamplerOptions options;  // Default attribute-distance mode.
  options.max_groups = 7;      // Forces the seeded subsample.
  GroupSampler sampler(options);
  const auto want = sampler.SampleReference(f.dataset.graph, f.anchors);
  ASSERT_EQ(want.size(), 7u);
  for (int degree : {1, 4}) {
    ScopedDegree scoped(degree);
    EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors), want);
  }
}

TEST(CandidateDeterminismTest, TelemetryDoesNotChangeOutput) {
  const Fixture f = MakeFixture();
  GroupSampler sampler{GroupSamplerOptions{}};
  const auto want = sampler.Sample(f.dataset.graph, f.anchors);
  SampleTelemetry telemetry;
  EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors, &telemetry), want);
  EXPECT_GE(telemetry.search_seconds, 0.0);
  EXPECT_GE(telemetry.components_seconds, 0.0);
  EXPECT_GE(telemetry.select_seconds, 0.0);
}

TEST(CandidateDeterminismTest, CandidateStageProfileSubStages) {
  const Fixture f = MakeFixture();
  TpGrGadOptions options;
  RunContext ctx;
  ctx.profile = true;
  auto result = RunCandidateStage(f.dataset.graph, f.anchors, options, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().groups.empty());
  std::vector<std::string> stages;
  for (const StageTiming& t : ctx.stage_timings()) stages.push_back(t.stage);
  EXPECT_EQ(stages,
            (std::vector<std::string>{"candidates/search",
                                      "candidates/components",
                                      "candidates/select", "sampling"}));
  // Without profile: only the top-level stage timing.
  RunContext plain;
  auto plain_result =
      RunCandidateStage(f.dataset.graph, f.anchors, options, &plain);
  ASSERT_TRUE(plain_result.ok());
  EXPECT_EQ(plain_result.value().groups, result.value().groups);
  ASSERT_EQ(plain.stage_timings().size(), 1u);
  EXPECT_EQ(plain.stage_timings()[0].stage, "sampling");
}

TEST(CandidateDeterminismTest, SteadyStateSamplingIsWorkspaceAllocFree) {
  const Fixture f = MakeFixture();
  ScopedDegree degree(4);
  GroupSampler sampler{GroupSamplerOptions{}};
  // Two warm-up calls grow every pooled workspace to this graph.
  sampler.Sample(f.dataset.graph, f.anchors);
  sampler.Sample(f.dataset.graph, f.anchors);
  const uint64_t before = TraversalWorkspace::TotalHeapAllocs();
  sampler.Sample(f.dataset.graph, f.anchors);
  EXPECT_EQ(TraversalWorkspace::TotalHeapAllocs(), before);
}

TEST(CandidateDeterminismTest, TrimWorkspacesRewarmsCleanly) {
  const Fixture f = MakeFixture();
  GroupSampler sampler{GroupSamplerOptions{}};
  const auto want = sampler.Sample(f.dataset.graph, f.anchors);
  GroupSampler::TrimWorkspaces();
  EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors), want);
}

TEST(CandidateDeterminismTest, BatchFromGroupsMatchesInducedBatch) {
  const Fixture f = MakeFixture();
  std::vector<std::vector<int>> groups = f.dataset.anomaly_groups;
  std::vector<Graph> induced;
  induced.reserve(groups.size());
  for (const auto& group : groups) {
    induced.push_back(f.dataset.graph.InducedSubgraph(group));
  }
  const GraphBatch want = BuildGraphBatch(induced);
  const GraphBatch got = BuildGraphBatchFromGroups(f.dataset.graph, groups);
  EXPECT_TRUE(BitwiseEqual(got.x, want.x));
  ASSERT_EQ(got.op->nnz(), want.op->nnz());
  ASSERT_EQ(got.op->rows(), want.op->rows());
  for (size_t i = 0; i < want.op->rows(); ++i) {
    auto want_cols = want.op->RowCols(i);
    auto got_cols = got.op->RowCols(i);
    ASSERT_EQ(std::vector<int>(got_cols.begin(), got_cols.end()),
              std::vector<int>(want_cols.begin(), want_cols.end()));
    auto want_vals = want.op->RowValues(i);
    auto got_vals = got.op->RowValues(i);
    for (size_t p = 0; p < want_vals.size(); ++p) {
      ASSERT_EQ(got_vals[p], want_vals[p]) << "row " << i;
    }
  }
  ASSERT_EQ(got.pool->nnz(), want.pool->nnz());
}

}  // namespace
}  // namespace grgad
