#include "src/od/knn.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace grgad {

Matrix PairwiseDistances(const Matrix& x) {
  internal::CountDistanceSweep();
  const size_t n = x.rows();
  Matrix d(n, n);
  // GEMM identity, panel-streamed straight into the output rows. The
  // tiled MatMul accumulates each Gram element over columns in ascending
  // order, so d is bitwise symmetric and the diagonal is exactly zero
  // (and explicitly zeroed by the panel machinery regardless).
  internal::ForEachDistancePanel(
      x, [&d, n](size_t i0, size_t rows, const Matrix& panel) {
        std::memcpy(d.RowPtr(i0), panel.RowPtr(0),
                    rows * n * sizeof(double));
      });
  return d;
}

namespace {

std::vector<std::vector<int>> NeighborListsFromIndex(
    const NeighborIndex& index) {
  std::vector<std::vector<int>> out(index.n);
  for (int i = 0; i < index.n; ++i) {
    const int* ids = index.ids.data() + static_cast<size_t>(i) * index.k;
    out[i].assign(ids, ids + index.k);
  }
  return out;
}

}  // namespace

std::vector<std::vector<int>> KNearestNeighbors(const Matrix& x, int k) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 1);
  k = std::min(k, n - 1);
  // Seed behavior: k <= 0 selects nothing (n empty lists), no sweep.
  if (k <= 0) return std::vector<std::vector<int>>(n);
  return NeighborListsFromIndex(BuildNeighborIndex(x, k));
}

std::vector<std::vector<int>> KNearestNeighborsFromDistances(const Matrix& d,
                                                             int k) {
  const int n = static_cast<int>(d.rows());
  k = std::min(k, n - 1);
  // Mirror KNearestNeighbors: k <= 0 selects nothing.
  if (k <= 0) return std::vector<std::vector<int>>(n);
  return NeighborListsFromIndex(NeighborIndexFromDistances(d, k));
}

int KnnDetector::NeighborsNeeded(int n) const {
  return n > 1 ? std::min(k_, n - 1) : 0;
}

std::vector<double> KnnDetector::FitScore(const Matrix& x) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  if (n == 1) return {0.0};
  return FitScoreWithIndex(x, BuildNeighborIndex(x, NeighborsNeeded(n)));
}

std::vector<double> KnnDetector::FitScoreWithIndex(const Matrix& x,
                                                   const NeighborIndex& index) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  if (n == 1) return {0.0};
  const int k = std::min(k_, n - 1);
  GRGAD_CHECK(index.n == n && index.k >= k);
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) score[i] = index.Distance(i, k - 1);
  return score;
}

}  // namespace grgad
