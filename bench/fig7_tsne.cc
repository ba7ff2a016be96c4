// Fig. 7 reproduction: t-SNE visualization of TPGCL group embeddings.
// Emits one CSV of 2-d points per dataset (columns: dim1, dim2, label) —
// the exact data behind the paper's scatter plots — plus a quantitative
// separation score so the clustering claim is checkable without a plot.
#include "bench/bench_common.h"
#include "src/metrics/completeness.h"
#include "src/viz/tsne.h"

namespace grgad::bench {
namespace {

int Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  Banner("Fig. 7: t-SNE of TPGCL group embeddings");
  const std::vector<std::string> datasets =
      config.full ? BenchDatasets()
                  : std::vector<std::string>{"simml", "cora-group",
                                             "ethereum"};
  CsvWriter summary({"dataset", "num_groups", "num_anomalous",
                     "separation_score"});
  for (const std::string& dataset_name : datasets) {
    Dataset dataset;
    if (!LoadBenchDataset(dataset_name, &dataset)) return 1;
    TpGrGad method(MakeTpGrGadOptions(config, 1000));
    auto result = method.TryRun(dataset.graph);
    if (!result.ok()) {
      std::printf("%s: %s, skipping\n", dataset_name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    const PipelineArtifacts& artifacts = result.value();
    if (artifacts.candidate_groups.size() < 4) {
      std::printf("%s: too few candidates, skipping\n", dataset_name.c_str());
      continue;
    }
    const auto match =
        MatchGroups(dataset.anomaly_groups, artifacts.candidate_groups, 0.5);
    std::vector<int> labels(artifacts.candidate_groups.size(), 0);
    int anomalous = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = match[i] >= 0;
      anomalous += labels[i];
    }
    TsneOptions tsne_options;
    tsne_options.iterations = config.full ? 500 : 250;
    const Matrix points = Tsne(artifacts.group_embeddings, tsne_options);
    const double separation = BinarySeparationScore(points, labels);
    std::printf("%-16s %4zu groups (%3d anomalous)  separation %.3f\n",
                dataset_name.c_str(), labels.size(), anomalous, separation);
    CsvWriter cloud({"dim1", "dim2", "label"});
    for (size_t i = 0; i < points.rows(); ++i) {
      cloud.AppendNumericRow({points(i, 0), points(i, 1),
                              static_cast<double>(labels[i])});
    }
    EmitCsv(cloud, "fig7_tsne_" + dataset_name + ".csv");
    summary.AppendRow({dataset_name, std::to_string(labels.size()),
                       std::to_string(anomalous), FormatDouble(separation)});
  }
  EmitCsv(summary, "fig7_tsne_summary.csv");
  return 0;
}

}  // namespace
}  // namespace grgad::bench

int main() { return grgad::bench::Run(); }
