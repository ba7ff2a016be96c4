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

/// -log tail probability for every possible ECDF count c in [0, n]: the
/// seed's per-cell expression -log(max(c / n, 1e-12)), evaluated once per
/// count (n + 1 logs per call) instead of twice per cell (2·n·d logs).
std::vector<double> TailTable(size_t n) {
  std::vector<double> table(n + 1);
  for (size_t c = 0; c <= n; ++c) {
    table[c] = -std::log(std::max(
        static_cast<double>(c) / static_cast<double>(n), 1e-12));
  }
  return table;
}

/// A column value and the row it came from.
struct Ranked {
  double value;
  size_t row;
};

/// One column's ECDF tail contributions: nl/nr/na get column j's
/// -log tail probabilities per sample (na = skewness-selected tail).
/// One sort of (value, row) pairs replaces the seed's two binary searches
/// per sample: every row of a tie run [lo, hi) in sorted order has hi
/// values <= it (upper_bound's count) and n - lo values >= it
/// (lower_bound's), so it reads the same table entries the seed's logs
/// produced. Factored out so columns run in parallel with identical
/// per-column arithmetic.
void ColumnContributions(const Matrix& x, size_t j,
                         const std::vector<double>& tail,
                         std::vector<double>* col, std::vector<Ranked>* sorted,
                         double* nl, double* nr, double* na) {
  const size_t n = x.rows();
  for (size_t i = 0; i < n; ++i) {
    (*col)[i] = x(i, j);
    (*sorted)[i] = {(*col)[i], i};
  }
  std::sort(sorted->begin(), sorted->end(),
            [](const Ranked& a, const Ranked& b) { return a.value < b.value; });
  // Skewness-corrected: negative skew -> left tail carries anomalies.
  const bool left_tail = Skewness(*col) < 0.0;
  for (size_t lo = 0; lo < n;) {
    size_t hi = lo + 1;
    while (hi < n && !((*sorted)[lo].value < (*sorted)[hi].value)) ++hi;
    const double l = tail[hi];      // P(X <= x_i) = hi / n.
    const double r = tail[n - lo];  // P(X >= x_i) = (n - lo) / n.
    for (size_t t = lo; t < hi; ++t) {
      const size_t row = (*sorted)[t].row;
      nl[row] = l;
      nr[row] = r;
      na[row] = left_tail ? l : r;
    }
    lo = hi;
  }
}

}  // namespace

std::vector<double> Ecod::FitScore(const Matrix& x) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  GRGAD_CHECK_GT(n, 0u);
  std::vector<double> o_left(n, 0.0), o_right(n, 0.0), o_auto(n, 0.0);
  // Columns are independent until the final per-sample accumulation, so
  // the per-column sort (the hot part) fans out over the pool: each
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
  const std::vector<double> tail = TailTable(n);
  for (size_t j0 = 0; j0 < d; j0 += block) {
    const size_t bw = std::min(block, d - j0);
    ParallelFor(bw, 1, [&](size_t begin, size_t end) {
      std::vector<double> col(n);
      std::vector<Ranked> sorted(n);
      for (size_t jj = begin; jj < end; ++jj) {
        ColumnContributions(x, j0 + jj, tail, &col, &sorted, cl.data() + jj * n,
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
