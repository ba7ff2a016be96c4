// TPGCL: Topology Pattern-based Graph Contrastive Learning (paper §V-D).
//
// Pipeline per candidate group g: find its topology patterns (Alg. 2 line
// 4), generate a positive view with PPA and a negative view with PBA, encode
// all three graphs with a shared 2-layer GCN f_theta + mean-pool readout,
// and train f_theta jointly with the MINE statistic Φ on the Eqn. (8)
// objective. After convergence the *original* group embeddings z_G carry
// the topology-pattern signal and are handed to an outlier detector.
//
// Implementation note: the m candidate groups (and their views) are batched
// as one disjoint-union graph per view set — a single block-diagonal
// normalized adjacency, stacked attributes, and a sparse mean-pool matrix —
// so each epoch costs three GCN passes regardless of m.
#ifndef GRGAD_GCL_TPGCL_H_
#define GRGAD_GCL_TPGCL_H_

#include <memory>
#include <vector>

#include "src/gcl/augmentations.h"
#include "src/graph/graph.h"
#include "src/tensor/arena.h"
#include "src/tensor/matrix.h"
#include "src/tensor/sparse.h"
#include "src/util/cancel.h"

namespace grgad {

/// TPGCL hyperparameters (§VII-A4: 2-layer GCN, 64-d embeddings).
struct TpgclOptions {
  int hidden_dim = 64;
  int embed_dim = 64;
  int mine_hidden = 64;
  int epochs = 60;
  double lr = 5e-3;
  /// Mismatched pairs per sample in the Eqn. (8) double sum (m-1 = exact).
  int neg_per_sample = 32;
  /// View-generating augmentations (Fig. 6 swaps these).
  AugmentationKind positive_aug = AugmentationKind::kPpa;
  AugmentationKind negative_aug = AugmentationKind::kPba;
  PatternSearchOptions pattern_options;
  uint64_t seed = 5;
  /// Cooperative stop token (cancellation, deadline, resource budget),
  /// polled once per epoch. When it fires, FitEmbed() abandons training and
  /// returns a partial TpgclResult (empty embeddings); callers that handed
  /// out the token must check its stop_reason() before consuming the
  /// result.
  CancelToken cancel;
  /// Soft byte budget for the training arena (0 = unlimited); see
  /// GaeOptions::arena_byte_budget.
  uint64_t arena_byte_budget = 0;
  /// Optional caller-owned buffer arena (must outlive FitEmbed); see
  /// GaeOptions::arena.
  MatrixArena* arena = nullptr;
};

/// Fit output: per-group embeddings (row i = groups[i]) + loss curve.
struct TpgclResult {
  Matrix embeddings;
  std::vector<double> loss_history;
};

/// A disjoint-union batch of small graphs: one GCN operator, stacked
/// attributes, and a mean-pool matrix (one row per member graph). Exposed
/// for tests and for the ablation harness.
struct GraphBatch {
  std::shared_ptr<const SparseMatrix> op;    ///< Block-diag Â (N x N).
  Matrix x;                                  ///< Stacked attributes (N x d).
  std::shared_ptr<const SparseMatrix> pool;  ///< m x N mean-pool.
};

/// Builds the union batch; all graphs must share the attribute width.
GraphBatch BuildGraphBatch(const std::vector<Graph>& graphs);

/// Builds the union batch of the subgraphs of `host` induced by `groups`
/// WITHOUT materializing them: one SubgraphView is retargeted per group and
/// the block-diagonal normalized adjacency, stacked attributes, and pool
/// matrix are emitted straight off it. Bitwise identical to
/// BuildGraphBatch({host.InducedSubgraph(group)...}); FitEmbed builds its
/// original-group batch through this.
GraphBatch BuildGraphBatchFromGroups(
    const Graph& host, const std::vector<std::vector<int>>& groups);

/// The TPGCL trainer.
class Tpgcl {
 public:
  explicit Tpgcl(TpgclOptions options = {});

  /// Trains on the candidate groups of `host` and returns their embeddings.
  /// Requires >= 2 groups; each group is a node-id list into `host`.
  TpgclResult FitEmbed(const Graph& host,
                       const std::vector<std::vector<int>>& groups) const;

 private:
  TpgclOptions options_;
};

}  // namespace grgad

#endif  // GRGAD_GCL_TPGCL_H_
