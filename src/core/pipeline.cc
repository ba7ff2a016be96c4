#include "src/core/pipeline.h"

#include "src/util/logging.h"

namespace grgad {

TpGrGad::TpGrGad(TpGrGadOptions options) : options_(std::move(options)) {
  // ReseedStages() footgun fix: callers who set `seed` but forgot to call
  // ReseedStages() used to silently train every stage with the default
  // stage seeds. Propagate automatically — but only into stage seeds still
  // holding their defaults, so explicit per-stage seeding wins, and only
  // when `seed` itself was changed, so default-options runs reproduce the
  // historical output bit-for-bit.
  const TpGrGadOptions defaults;
  if (options_.seed != defaults.seed) {
    if (options_.mh_gae.base.seed == defaults.mh_gae.base.seed) {
      options_.mh_gae.base.seed = options_.seed ^ 0x1;
    }
    if (options_.tpgcl.seed == defaults.tpgcl.seed) {
      options_.tpgcl.seed = options_.seed ^ 0x2;
    }
  }
}

Result<PipelineArtifacts> TpGrGad::TryRun(const Graph& g,
                                          RunContext* ctx) const {
  return RunPipeline(g, options_, ctx);
}

std::vector<ScoredGroup> TpGrGad::DetectGroups(const Graph& g) const {
  // RunPipelineInto rather than TryRun: on FailedPrecondition it leaves the
  // candidates it sampled in `artifacts`, unscored.
  PipelineArtifacts artifacts;
  const Status status = RunPipelineInto(g, options_, nullptr, &artifacts);
  if (!status.ok() && status.code() != StatusCode::kFailedPrecondition) {
    GRGAD_LOG(kError) << "TpGrGad::DetectGroups: " << status.ToString();
    GRGAD_CHECK(status.ok());
  }
  return artifacts.scored_groups;
}

}  // namespace grgad
