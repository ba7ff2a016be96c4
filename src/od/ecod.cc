#include "src/od/ecod.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace grgad {

namespace {

/// Sample skewness of a column (0 for degenerate columns).
double Skewness(const std::vector<double>& col) {
  const size_t n = col.size();
  if (n < 2) return 0.0;
  double mean = 0.0;
  for (double v : col) mean += v;
  mean /= static_cast<double>(n);
  double m2 = 0.0, m3 = 0.0;
  for (double v : col) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 1e-300) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

/// One column's ECDF tail contributions: nl/nr/na get column j's
/// -log tail probabilities per sample (na = skewness-selected tail).
/// Factored out so columns run in parallel with identical per-column
/// arithmetic.
void ColumnContributions(const Matrix& x, size_t j, std::vector<double>* col,
                         std::vector<double>* sorted, double* nl, double* nr,
                         double* na) {
  const size_t n = x.rows();
  for (size_t i = 0; i < n; ++i) (*col)[i] = x(i, j);
  *sorted = *col;
  std::sort(sorted->begin(), sorted->end());
  const double skew = Skewness(*col);
  for (size_t i = 0; i < n; ++i) {
    // Left tail: P(X <= x_i) with the sample included -> rank/(n).
    const auto hi = std::upper_bound(sorted->begin(), sorted->end(), (*col)[i]);
    const double p_left =
        static_cast<double>(hi - sorted->begin()) / static_cast<double>(n);
    // Right tail: P(X >= x_i).
    const auto lo = std::lower_bound(sorted->begin(), sorted->end(), (*col)[i]);
    const double p_right =
        static_cast<double>(sorted->end() - lo) / static_cast<double>(n);
    nl[i] = -std::log(std::max(p_left, 1e-12));
    nr[i] = -std::log(std::max(p_right, 1e-12));
    // Skewness-corrected: negative skew -> left tail carries anomalies.
    na[i] = (skew < 0.0) ? nl[i] : nr[i];
  }
}

}  // namespace

std::vector<double> Ecod::FitScore(const Matrix& x) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  GRGAD_CHECK_GT(n, 0u);
  std::vector<double> o_left(n, 0.0), o_right(n, 0.0), o_auto(n, 0.0);
  // Columns are independent until the final per-sample accumulation, so
  // the sort + ECDF work (the hot part) fans out over the pool: each
  // column in a block writes its contributions to its own slice, then the
  // block reduces in ascending column order per sample — the serial
  // column loop's exact accumulation order, so the result is bitwise
  // identical to reference::EcodFitScore and invariant across
  // GRGAD_THREADS. Blocks bound the contribution buffers to
  // ~3 * kBlockBudget doubles.
  constexpr size_t kBlockBudget = 1 << 20;
  const size_t block =
      std::max<size_t>(1, std::min<size_t>(32, kBlockBudget / n));
  std::vector<double> cl(block * n), cr(block * n), ca(block * n);
  for (size_t j0 = 0; j0 < d; j0 += block) {
    const size_t bw = std::min(block, d - j0);
    ParallelFor(bw, 1, [&](size_t begin, size_t end) {
      std::vector<double> col(n), sorted(n);
      for (size_t jj = begin; jj < end; ++jj) {
        ColumnContributions(x, j0 + jj, &col, &sorted, cl.data() + jj * n,
                            cr.data() + jj * n, ca.data() + jj * n);
      }
    });
    ParallelFor(n, 1 << 14, [&](size_t begin, size_t end) {
      for (size_t jj = 0; jj < bw; ++jj) {
        const double* l = cl.data() + jj * n;
        const double* r = cr.data() + jj * n;
        const double* a = ca.data() + jj * n;
        for (size_t i = begin; i < end; ++i) {
          o_left[i] += l[i];
          o_right[i] += r[i];
          o_auto[i] += a[i];
        }
      }
    });
  }
  std::vector<double> score(n);
  for (size_t i = 0; i < n; ++i) {
    score[i] = std::max({o_left[i], o_right[i], o_auto[i]});
  }
  return score;
}

}  // namespace grgad
