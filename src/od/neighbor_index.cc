#include "src/od/neighbor_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace grgad {

namespace internal {

namespace {
std::atomic<uint64_t> g_distance_sweeps{0};
}  // namespace

uint64_t DistanceSweeps() {
  return g_distance_sweeps.load(std::memory_order_relaxed);
}

void ResetDistanceSweeps() {
  g_distance_sweeps.store(0, std::memory_order_relaxed);
}

void CountDistanceSweep() {
  g_distance_sweeps.fetch_add(1, std::memory_order_relaxed);
}

void ForEachDistancePanel(
    const Matrix& x,
    const std::function<void(size_t, size_t, const Matrix&)>& sink) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  // Squared row norms, accumulated ascending over columns — the exact order
  // the tiled MatMul uses per output element, so ‖xᵢ‖² − xᵢ·xᵢ cancels to
  // exactly 0 and the diagonal needs no fixup beyond the defensive clamp.
  std::vector<double> norms(n);
  ParallelFor(n, 256, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* row = x.RowPtr(i);
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) s += row[j] * row[j];
      norms[i] = s;
    }
  });
  const Matrix xt = x.Transpose();

  // Row panels: the Gram panel G = A_panel · xᵀ is the only O(panel·n)
  // buffer; large n never materializes the full n×n matrix here.
  constexpr size_t kPanelRows = 256;
  Matrix panel_a;
  Matrix gram;
  for (size_t i0 = 0; i0 < n; i0 += kPanelRows) {
    const size_t rows = std::min(kPanelRows, n - i0);
    if (panel_a.rows() != rows) {
      panel_a = Matrix(rows, d);
      gram = Matrix(rows, n);
    }
    // Row-major rows are contiguous, so a row panel is one memcpy.
    std::memcpy(panel_a.data(), x.RowPtr(i0), rows * d * sizeof(double));
    MatMulInto(panel_a, xt, &gram);
    ParallelFor(rows, 1, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        double* row = gram.RowPtr(r);
        const double ni = norms[i0 + r];
        for (size_t j = 0; j < n; ++j) {
          // Clamp: FP cancellation can leave a tiny negative residual.
          row[j] = std::sqrt(std::max(0.0, ni + norms[j] - 2.0 * row[j]));
        }
        row[i0 + r] = 0.0;
      }
    });
    sink(i0, rows, gram);
  }
}

}  // namespace internal

namespace {

/// Selects the k nearest neighbors of row `i` from its distance row `drow`
/// (length n) into the index, using the seed's deterministic tie-break:
/// ascending distance, ties by ascending id. `cand` is caller scratch.
void SelectRow(const double* drow, size_t n, size_t i, int k,
               std::vector<int>* cand, NeighborIndex* out) {
  cand->clear();
  for (size_t j = 0; j < n; ++j) {
    if (j != i) cand->push_back(static_cast<int>(j));
  }
  std::partial_sort(cand->begin(), cand->begin() + k, cand->end(),
                    [drow](int a, int b) {
                      if (drow[a] != drow[b]) return drow[a] < drow[b];
                      return a < b;
                    });
  int* ids = out->ids.data() + i * static_cast<size_t>(k);
  double* dists = out->dists.data() + i * static_cast<size_t>(k);
  for (int pos = 0; pos < k; ++pos) {
    ids[pos] = (*cand)[pos];
    dists[pos] = drow[(*cand)[pos]];
  }
}

}  // namespace

NeighborIndex NeighborIndexFromDistances(const Matrix& d, int k) {
  const size_t n = d.rows();
  GRGAD_CHECK(d.cols() == n);
  GRGAD_CHECK_GT(n, 1u);
  k = std::min(k, static_cast<int>(n) - 1);
  GRGAD_CHECK_GT(k, 0);
  NeighborIndex out;
  out.n = static_cast<int>(n);
  out.k = k;
  out.ids.resize(n * static_cast<size_t>(k));
  out.dists.resize(n * static_cast<size_t>(k));
  std::vector<int> cand;
  cand.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SelectRow(d.RowPtr(i), n, i, k, &cand, &out);
  }
  return out;
}

NeighborIndex BuildNeighborIndex(const Matrix& x, int k) {
  const size_t n = x.rows();
  GRGAD_CHECK_GT(n, 1u);
  k = std::min(k, static_cast<int>(n) - 1);
  GRGAD_CHECK_GT(k, 0);
  internal::CountDistanceSweep();
  NeighborIndex out;
  out.n = static_cast<int>(n);
  out.k = k;
  out.ids.resize(n * static_cast<size_t>(k));
  out.dists.resize(n * static_cast<size_t>(k));
  internal::ForEachDistancePanel(
      x, [&](size_t i0, size_t rows, const Matrix& panel) {
        ParallelFor(rows, 1, [&](size_t begin, size_t end) {
          std::vector<int> cand;
          cand.reserve(n);
          for (size_t r = begin; r < end; ++r) {
            SelectRow(panel.RowPtr(r), n, i0 + r, k, &cand, &out);
          }
        });
      });
  return out;
}

}  // namespace grgad
