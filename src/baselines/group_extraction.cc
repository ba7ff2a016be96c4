#include "src/baselines/group_extraction.h"

#include <algorithm>

#include "src/graph/algorithms.h"
#include "src/graph/traversal_workspace.h"
#include "src/metrics/classification.h"

namespace grgad {

std::vector<ScoredGroup> ExtractGroupsFromNodeScores(
    const Graph& g, const std::vector<double>& node_scores,
    const GroupExtractionOptions& options) {
  GRGAD_CHECK_EQ(node_scores.size(), static_cast<size_t>(g.num_nodes()));
  const std::vector<int> labels =
      LabelsAtContamination(node_scores, options.contamination);
  std::vector<int> anomalous;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (labels[v] == 1) anomalous.push_back(v);
  }
  // A pooled workspace's stamped marks spare a per-call hash set and O(n)
  // seen vector.
  TraversalWorkspacePool::Lease ws =
      TraversalWorkspacePool::Global().Acquire();
  std::vector<ScoredGroup> out;
  for (auto& component : ComponentsOfSubset(g, anomalous, ws.get())) {
    if (!options.keep_singletons && component.size() < 2) continue;
    if (static_cast<int>(component.size()) > options.max_group_size) {
      std::sort(component.begin(), component.end(),
                [&node_scores](int a, int b) {
                  return node_scores[a] > node_scores[b];
                });
      component.resize(options.max_group_size);
      std::sort(component.begin(), component.end());
    }
    double mean_score = 0.0;
    for (int v : component) mean_score += node_scores[v];
    mean_score /= static_cast<double>(component.size());
    out.push_back({std::move(component), mean_score});
  }
  return out;
}

NodeScorerGroupAdapter::NodeScorerGroupAdapter(
    std::shared_ptr<const NodeScorer> scorer, GroupExtractionOptions options)
    : scorer_(std::move(scorer)), options_(options) {
  GRGAD_CHECK(scorer_ != nullptr);
}

std::vector<ScoredGroup> NodeScorerGroupAdapter::DetectGroups(
    const Graph& g) const {
  return ExtractGroupsFromNodeScores(g, scorer_->FitNodeScores(g), options_);
}

}  // namespace grgad
