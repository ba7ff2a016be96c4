// End-to-end TP-GrGAD pipeline and the evaluation harness: the full method
// must beat the node-level adapter on the example dataset's CR, stay
// deterministic, and the ablation switch (w/o TPGCL) must function.
#include <gtest/gtest.h>

#include "src/baselines/group_extraction.h"
#include "src/core/evaluation.h"
#include "src/core/pipeline.h"
#include "src/data/example_graph.h"
#include "src/gae/dominant.h"

namespace grgad {
namespace {

TpGrGadOptions QuickOptions(uint64_t seed = 42, bool reseed = true) {
  TpGrGadOptions options;
  options.seed = seed;
  options.mh_gae.base.epochs = 40;
  options.mh_gae.base.hidden_dim = 32;
  options.mh_gae.base.embed_dim = 16;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 30;
  options.tpgcl.hidden_dim = 32;
  options.tpgcl.embed_dim = 16;
  if (reseed) options.ReseedStages();
  return options;
}

/// TryRun's artifacts; a failed run fails the test and yields none.
PipelineArtifacts MustRun(const TpGrGadOptions& options, const Graph& g) {
  auto result = TpGrGad(options).TryRun(g);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : PipelineArtifacts();
}

TEST(PipelineTest, ProducesScoredGroups) {
  const Dataset d = GenExampleGraph({});
  TpGrGad method(QuickOptions());
  EXPECT_EQ(method.Name(), "tp-grgad");
  auto result = method.TryRun(d.graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PipelineArtifacts& artifacts = result.value();
  EXPECT_FALSE(artifacts.anchors.empty());
  EXPECT_GE(artifacts.candidate_groups.size(), 2u);
  EXPECT_EQ(artifacts.group_scores.size(), artifacts.candidate_groups.size());
  EXPECT_EQ(artifacts.scored_groups.size(), artifacts.candidate_groups.size());
  EXPECT_EQ(artifacts.group_embeddings.rows(),
            artifacts.candidate_groups.size());
  EXPECT_EQ(artifacts.gae_node_errors.size(),
            static_cast<size_t>(d.graph.num_nodes()));
  EXPECT_FALSE(artifacts.tpgcl_loss_history.empty());
}

TEST(PipelineTest, DeterministicGivenSeed) {
  const Dataset d = GenExampleGraph({});
  const PipelineArtifacts a = MustRun(QuickOptions(7), d.graph);
  const PipelineArtifacts b = MustRun(QuickOptions(7), d.graph);
  ASSERT_EQ(a.scored_groups.size(), b.scored_groups.size());
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(a.scored_groups[i].nodes, b.scored_groups[i].nodes);
    EXPECT_DOUBLE_EQ(a.scored_groups[i].score, b.scored_groups[i].score);
  }
}

TEST(PipelineTest, ConstructorPropagatesSeedWithoutReseedStages) {
  // ReseedStages() footgun regression: a detector built from un-reseeded
  // options (seed set, ReseedStages forgotten) must agree with one built
  // from explicitly reseeded options — the constructor propagates.
  const Dataset d = GenExampleGraph({});
  const PipelineArtifacts forgot =
      MustRun(QuickOptions(7, /*reseed=*/false), d.graph);
  const PipelineArtifacts reseeded =
      MustRun(QuickOptions(7, /*reseed=*/true), d.graph);
  ASSERT_EQ(forgot.scored_groups.size(), reseeded.scored_groups.size());
  for (size_t i = 0; i < forgot.scored_groups.size(); ++i) {
    EXPECT_EQ(forgot.scored_groups[i].nodes, reseeded.scored_groups[i].nodes);
    EXPECT_DOUBLE_EQ(forgot.scored_groups[i].score,
                     reseeded.scored_groups[i].score);
  }
}

TEST(PipelineTest, ConstructorKeepsExplicitStageSeeds) {
  TpGrGadOptions options;
  options.seed = 7;
  options.tpgcl.seed = 123;  // Explicit per-stage seed must win.
  TpGrGad method(options);
  EXPECT_EQ(method.options().tpgcl.seed, 123u);
  EXPECT_EQ(method.options().mh_gae.base.seed, 7u ^ 0x1);
}

TEST(PipelineTest, DefaultOptionsKeepHistoricalStageSeeds) {
  // Bit-for-bit compatibility: default-constructed options must run with
  // the same stage seeds as before the Engine redesign.
  TpGrGad method;
  EXPECT_EQ(method.options().mh_gae.base.seed, GaeOptions{}.seed);
  EXPECT_EQ(method.options().tpgcl.seed, TpgclOptions{}.seed);
}

TEST(PipelineTest, BeatsNodeLevelAdapterOnCompleteness) {
  // The headline Table III shape on the example instance: TP-GrGAD's CR
  // exceeds the DOMINANT-with-components adapter's CR.
  const Dataset d = GenExampleGraph({});
  TpGrGad method(QuickOptions());
  const GroupEvaluation ours =
      EvaluateGroups(d, method.DetectGroups(d.graph));

  GaeOptions gae;
  gae.epochs = 40;
  gae.hidden_dim = 32;
  gae.embed_dim = 16;
  NodeScorerGroupAdapter dominant(std::make_shared<Dominant>(gae));
  const GroupEvaluation theirs =
      EvaluateGroups(d, dominant.DetectGroups(d.graph));

  EXPECT_GT(ours.cr, theirs.cr);
  EXPECT_GT(ours.cr, 0.5);
}

TEST(PipelineTest, AblationWithoutTpgclRuns) {
  const Dataset d = GenExampleGraph({});
  TpGrGadOptions options = QuickOptions();
  options.disable_tpgcl = true;
  const PipelineArtifacts artifacts = MustRun(options, d.graph);
  EXPECT_EQ(artifacts.group_embeddings.cols(), d.graph.attr_dim());
  EXPECT_TRUE(artifacts.tpgcl_loss_history.empty());
  EXPECT_EQ(artifacts.group_scores.size(), artifacts.candidate_groups.size());
}

TEST(PipelineTest, AlternativeDetectorsWork) {
  const Dataset d = GenExampleGraph({});
  for (DetectorKind kind : {DetectorKind::kLof, DetectorKind::kMad}) {
    TpGrGadOptions options = QuickOptions();
    options.detector = kind;
    options.tpgcl.epochs = 10;
    const auto groups = TpGrGad(options).DetectGroups(d.graph);
    EXPECT_FALSE(groups.empty());
  }
}

TEST(EvaluationTest, PerfectPredictionsScorePerfect) {
  const Dataset d = GenExampleGraph({});
  std::vector<ScoredGroup> perfect;
  for (const auto& g : d.anomaly_groups) perfect.push_back({g, 1.0});
  // Add clearly-normal distractors with low scores.
  perfect.push_back({{0, 1, 2}, 0.01});
  perfect.push_back({{10, 11, 12}, 0.02});
  const GroupEvaluation eval = EvaluateGroups(d, perfect);
  EXPECT_DOUBLE_EQ(eval.cr, 1.0);
  EXPECT_DOUBLE_EQ(eval.f1, 1.0);
  EXPECT_DOUBLE_EQ(eval.auc, 1.0);
  EXPECT_EQ(eval.num_predicted_anomalous, 3);
}

TEST(EvaluationTest, EmptyPredictions) {
  const Dataset d = GenExampleGraph({});
  const GroupEvaluation eval = EvaluateGroups(d, {});
  EXPECT_DOUBLE_EQ(eval.cr, 0.0);
  EXPECT_DOUBLE_EQ(eval.f1, 0.0);
  EXPECT_EQ(eval.num_candidates, 0);
}

TEST(EvaluationTest, InvertedScoresHurtAuc) {
  const Dataset d = GenExampleGraph({});
  std::vector<ScoredGroup> inverted;
  for (const auto& g : d.anomaly_groups) inverted.push_back({g, 0.0});
  inverted.push_back({{0, 1, 2}, 1.0});
  inverted.push_back({{10, 11, 12}, 0.9});
  const GroupEvaluation eval = EvaluateGroups(d, inverted);
  EXPECT_LT(eval.auc, 0.5);
  // Contamination thresholding still labels k groups positive; with ties at
  // the bottom some true group may sneak in, but F1 must stay poor.
  EXPECT_LT(eval.f1, 0.5);
}

TEST(EvaluationTest, AggregateComputesMeanAndStdError) {
  GroupEvaluation a, b;
  a.cr = 0.8;
  b.cr = 0.6;
  a.f1 = 1.0;
  b.f1 = 0.0;
  a.auc = 0.9;
  b.auc = 0.7;
  const AggregatedEvaluation agg = Aggregate({a, b});
  EXPECT_DOUBLE_EQ(agg.cr_mean, 0.7);
  EXPECT_NEAR(agg.cr_stderr, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(agg.f1_mean, 0.5);
  EXPECT_DOUBLE_EQ(agg.auc_mean, 0.8);
  EXPECT_TRUE(Aggregate({}).cr_mean == 0.0);
}

TEST(EvaluationTest, FormatCell) {
  EXPECT_EQ(FormatCell(0.812, 0.104), "0.81±0.10");
  EXPECT_EQ(FormatCell(1.0, 0.0), "1.00±0.00");
}

}  // namespace
}  // namespace grgad
