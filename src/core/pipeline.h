// TP-GrGAD: the paper's end-to-end framework (Fig. 2).
//
//   graph --MH-GAE--> anchor nodes --Alg.1--> candidate groups
//         --TPGCL (PPA/PBA + MINE)--> 64-d group embeddings
//         --outlier detector (ECOD)--> anomaly scores per group.
//
// TpGrGad implements the GroupDetector interface as a thin driver over the
// Engine stages in stages.h. TryRun() is the entry point — bad input or
// mid-run cancellation comes back as a Status — and threads a RunContext
// through every stage for cancellation, progress callbacks, and per-stage
// telemetry. Callers who need to start mid-pipeline (e.g. rescore
// saved embeddings with a different detector) use stages.h directly.
#ifndef GRGAD_CORE_PIPELINE_H_
#define GRGAD_CORE_PIPELINE_H_

#include "src/core/group_detector.h"
#include "src/core/stages.h"

namespace grgad {

/// The TP-GrGAD method.
class TpGrGad : public GroupDetector {
 public:
  /// Builds the method. When `options.seed` was changed from its default
  /// but the per-stage seeds were not, the constructor propagates the seed
  /// into the training stages — mh_gae and tpgcl, exactly what
  /// ReseedStages() covers; sampler.seed stays independent — so forgetting
  /// ReseedStages() is no longer a footgun. Stage seeds the caller set
  /// explicitly are never overwritten.
  explicit TpGrGad(TpGrGadOptions options = {});

  /// Full pipeline with intermediate artifacts: empty/attribute-less
  /// graphs, no anchors, or fewer than two candidate groups return a Status,
  /// and `ctx` (optional) provides cancellation + progress + telemetry.
  Result<PipelineArtifacts> TryRun(const Graph& g,
                                   RunContext* ctx = nullptr) const;

  // GroupDetector interface. When there is nothing to contrast (no anchors,
  // fewer than two candidates) it returns the sampled candidates unscored;
  // any other pipeline failure aborts, as the interface has no Status.
  std::vector<ScoredGroup> DetectGroups(const Graph& g) const override;
  std::string Name() const override { return "tp-grgad"; }

  const TpGrGadOptions& options() const { return options_; }

 private:
  TpGrGadOptions options_;
};

}  // namespace grgad

#endif  // GRGAD_CORE_PIPELINE_H_
