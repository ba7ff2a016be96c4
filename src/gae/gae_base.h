// The GCN graph-autoencoder engine shared by MH-GAE and the N-GAD baselines.
//
// Architecture (paper §III-A / §V-B, and DOMINANT): a 2-layer GCN encoder
// produces node embeddings Z; an inner-product decoder reconstructs a
// *structure target* T evaluated on sampled node pairs (all stored entries
// of T plus uniformly sampled negatives — the standard scalable GAE
// objective); an MLP decoder reconstructs the attributes X. The weighted
// reconstruction error r_i = λ r_stru + (1-λ) r_attr (Eqn. 1) ranks nodes.
//
// Swapping T is exactly the paper's MH-GAE ablation (Table IV):
//   A  -> vanilla GAE / DOMINANT (one-hop inconsistency only)
//   A^k (standardized walk powers)   -> multi-hop inconsistency
//   Ã  (GraphSNN weighted adjacency) -> overlap-structure inconsistency.
#ifndef GRGAD_GAE_GAE_BASE_H_
#define GRGAD_GAE_GAE_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/arena.h"
#include "src/tensor/matrix.h"
#include "src/util/cancel.h"

namespace grgad {

/// Structure-reconstruction objective (Table IV columns).
enum class ReconTarget {
  kAdjacency,  ///< A (vanilla GAE / DOMINANT)
  kPower3,     ///< standardized A^3
  kPower5,     ///< standardized A^5
  kPower7,     ///< standardized A^7
  kGraphSnn,   ///< GraphSNN weighted Ã (MH-GAE default)
};

/// "A" | "A^3" | "A^5" | "A^7" | "A~".
const char* ToString(ReconTarget target);

/// Inverse of ToString(ReconTarget); false for unknown names.
bool ParseReconTarget(const std::string& name, ReconTarget* out);

/// GAE training hyperparameters (defaults follow §VII-A4).
struct GaeOptions {
  int hidden_dim = 64;
  int embed_dim = 64;
  int epochs = 80;
  double lr = 5e-3;
  double weight_decay = 0.0;
  /// λ of Eqn. (1): relative weight of the structure error. The attribute
  /// term carries the more reliable per-node signal (as in the DOMINANT
  /// reference configuration); the structure term is what differentiates
  /// the reconstruction objectives (Table IV).
  double lambda = 0.3;
  /// Negative pairs sampled per positive pair for the structure loss.
  int neg_per_pos = 1;
  /// Cap on total sampled pairs (positives + negatives).
  size_t max_pairs = 200000;
  ReconTarget target = ReconTarget::kAdjacency;
  /// Per-row cap when forming standardized powers (keeps A^k sparse).
  int power_row_cap = 64;
  /// λ exponent of the GraphSNN weights (Eqn. 4).
  double graphsnn_lambda = 1.0;
  uint64_t seed = 1;
  /// Cooperative stop token (cancellation, deadline, resource budget),
  /// polled once per epoch. When it fires, Fit() abandons training and
  /// returns a partial GaeResult (loss_history only); callers that handed
  /// out the token must check its stop_reason() before consuming the
  /// result.
  CancelToken cancel;
  /// Soft byte budget for the training arena (0 = unlimited). On breach the
  /// arena fires `cancel` with StopReason::kResourceExhausted and the epoch
  /// loop unwinds cleanly — see MatrixArena::SetByteBudget.
  uint64_t arena_byte_budget = 0;
  /// Optional caller-owned buffer arena (must outlive Fit). When null, Fit
  /// installs a run-local arena; either way steady-state epochs reuse
  /// buffers instead of reallocating them.
  /// Passing an arena lets callers (benchmarks, multi-fit pipelines)
  /// inspect allocation stats and share warm buffers across fits.
  MatrixArena* arena = nullptr;
};

/// Everything a fitted GAE exposes.
struct GaeResult {
  Matrix embeddings;                    ///< n x embed_dim node embeddings Z.
  std::vector<double> node_errors;      ///< r_i (min-max normalized blend).
  std::vector<double> structure_errors; ///< raw r_stru per node.
  std::vector<double> attribute_errors; ///< raw r_attr per node.
  std::vector<double> loss_history;     ///< training loss per epoch.
};

/// Trains the autoencoder on a graph and returns node scores + embeddings.
class GcnGae {
 public:
  explicit GcnGae(GaeOptions options = {});

  /// Fits on `g` (must have attributes) and computes reconstruction errors.
  GaeResult Fit(const Graph& g) const;

 private:
  GaeOptions options_;
};

/// Interface for node-level anomaly scorers (DOMINANT / DeepAE / ComGA /
/// MH-GAE), consumed by the group-extraction adapters and benches.
class NodeScorer {
 public:
  virtual ~NodeScorer() = default;
  /// Fits on the graph and returns one anomaly score per node (higher =
  /// more anomalous, min-max normalized to [0, 1]).
  virtual std::vector<double> FitNodeScores(const Graph& g) const = 0;
  virtual std::string Name() const = 0;
};

/// Min-max normalizes v to [0, 1] in place (no-op for constant vectors).
void MinMaxNormalize(std::vector<double>* v);

}  // namespace grgad

#endif  // GRGAD_GAE_GAE_BASE_H_
