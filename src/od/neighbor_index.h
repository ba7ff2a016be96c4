// Shared k-nearest-neighbor index for the scoring stage.
//
// Every distance-based detector (kNN, LOF) and the rank-average ensemble
// need the same thing from the group embeddings: each row's k nearest other
// rows with their distances. The seed implementations each recomputed the
// full O(n²·d) pairwise matrix from scratch — twice per kNN/LOF FitScore,
// paid again by the ensemble through its LOF member — instead of sharing
// one computation. A NeighborIndex is built once per scoring call and
// shared: detectors that need k' <= k neighbors read a prefix of each row
// (rows are sorted ascending by (distance, id), so the first k' entries of
// a k-index are exactly the k'-index).
//
// Construction is the scoring stage's hot path. Distances come from the
// identity ‖xᵢ−xⱼ‖² = ‖xᵢ‖² + ‖xⱼ‖² − 2·xᵢ·xⱼ via the register-tiled
// MatMul, streamed in row panels so large n never materializes an n×n
// matrix, with per-row partial selection parallelized over the pool. The
// selection uses the seed's deterministic tie-break (distance, then id) and
// is bitwise reproducible across runs and GRGAD_THREADS; distances differ
// from the scalar reference::PairwiseDistances only in FP contraction
// (rank-level contract, see PERF.md "Scoring stage").
#ifndef GRGAD_OD_NEIGHBOR_INDEX_H_
#define GRGAD_OD_NEIGHBOR_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/tensor/matrix.h"

namespace grgad {

/// k nearest other rows per row, ascending (distance, id). Flat n×k layout.
struct NeighborIndex {
  int n = 0;  ///< Rows indexed.
  int k = 0;  ///< Neighbors stored per row (>= every consumer's k).
  std::vector<int> ids;       ///< n*k neighbor row ids.
  std::vector<double> dists;  ///< n*k Euclidean distances, ascending per row.

  /// pos-th nearest neighbor of row i (pos in [0, k)).
  int Neighbor(int i, int pos) const { return ids[static_cast<size_t>(i) * k + pos]; }
  /// Distance to the pos-th nearest neighbor of row i.
  double Distance(int i, int pos) const {
    return dists[static_cast<size_t>(i) * k + pos];
  }
  bool empty() const { return n == 0; }
};

/// Builds the index over the rows of x (n >= 2; k clamped to n-1) from the
/// GEMM distance panels. Exactly one distance sweep.
NeighborIndex BuildNeighborIndex(const Matrix& x, int k);

/// Selection-only constructor from a precomputed full distance matrix
/// (n x n, zero diagonal) — the overload that lets callers holding a
/// distance matrix avoid recomputing it. Serial; performs
/// no distance sweep.
NeighborIndex NeighborIndexFromDistances(const Matrix& d, int k);

namespace internal {

/// Streams the pairwise-distance matrix of x in row panels: sink(i0, rows,
/// panel) receives distances for rows [i0, i0+rows) as the first `rows`
/// rows of `panel` (each row length n, sqrt'ed, diagonal zeroed). GEMM
/// machinery shared by BuildNeighborIndex and PairwiseDistances; does not
/// touch the sweep counter.
void ForEachDistancePanel(
    const Matrix& x,
    const std::function<void(size_t i0, size_t rows, const Matrix& panel)>&
        sink);

/// Number of full pairwise-distance computations (full-matrix or panel
/// sweep) since the last reset. kNN and LOF must perform exactly one per
/// FitScore on either path; tests/scoring_determinism_test.cc enforces it.
uint64_t DistanceSweeps();
void ResetDistanceSweeps();
void CountDistanceSweep();

}  // namespace internal

}  // namespace grgad

#endif  // GRGAD_OD_NEIGHBOR_INDEX_H_
