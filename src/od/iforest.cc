#include "src/od/iforest.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/util/check.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace grgad {

double AveragePathLength(int n) {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  const double h = std::log(n - 1.0) + 0.5772156649015329;  // Harmonic approx.
  return 2.0 * h - 2.0 * (n - 1.0) / n;
}

namespace {

struct IsoNode {
  int feature = -1;       // -1 marks a leaf.
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  int size = 0;           // Samples reaching this node (leaves only).
};

/// One isolation tree over the rows of x listed in `items`.
class IsoTree {
 public:
  IsoTree(const Matrix& x, std::vector<int> items, int max_depth, Rng* rng) {
    root_ = BuildNode(x, std::move(items), 0, max_depth, rng);
  }

  double PathLength(const Matrix& x, int row) const {
    int node = root_;
    double depth = 0.0;
    while (nodes_[node].feature >= 0) {
      node = x(row, nodes_[node].feature) < nodes_[node].threshold
                 ? nodes_[node].left
                 : nodes_[node].right;
      depth += 1.0;
    }
    return depth + AveragePathLength(nodes_[node].size);
  }

 private:
  int BuildNode(const Matrix& x, std::vector<int> items, int depth,
                int max_depth, Rng* rng) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    if (depth >= max_depth || items.size() <= 1) {
      nodes_[id].size = static_cast<int>(items.size());
      return id;
    }
    // Pick a feature with spread; give up after a few tries (constant data).
    const int d = static_cast<int>(x.cols());
    int feature = -1;
    double lo = 0.0, hi = 0.0;
    for (int attempt = 0; attempt < 8 && feature < 0; ++attempt) {
      const int f = static_cast<int>(rng->UniformInt(
          static_cast<uint64_t>(d)));
      lo = hi = x(items[0], f);
      for (int row : items) {
        lo = std::min(lo, x(row, f));
        hi = std::max(hi, x(row, f));
      }
      if (hi > lo) feature = f;
    }
    if (feature < 0) {
      nodes_[id].size = static_cast<int>(items.size());
      return id;
    }
    const double threshold = rng->Uniform(lo, hi);
    std::vector<int> left_items, right_items;
    for (int row : items) {
      (x(row, feature) < threshold ? left_items : right_items).push_back(row);
    }
    if (left_items.empty() || right_items.empty()) {
      nodes_[id].size = static_cast<int>(items.size());
      return id;
    }
    nodes_[id].feature = feature;
    nodes_[id].threshold = threshold;
    const int left = BuildNode(x, std::move(left_items), depth + 1, max_depth,
                               rng);
    const int right = BuildNode(x, std::move(right_items), depth + 1,
                                max_depth, rng);
    nodes_[id].left = left;
    nodes_[id].right = right;
    return id;
  }

  std::vector<IsoNode> nodes_;
  int root_ = 0;
};

/// Independent per-tree stream: a fixed odd-multiplier mix of (seed, t),
/// expanded by the Rng's own SplitMix64 seeding. Tree t's draws never
/// depend on how many draws tree t-1 consumed, which is what makes the
/// build order (serial or pool-parallel) irrelevant to the result.
uint64_t TreeSeed(uint64_t seed, int t) {
  return seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
}

}  // namespace

std::vector<double> IsolationForest::FitScore(const Matrix& x) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  const int psi = std::min(options_.subsample, n);
  const int max_depth =
      static_cast<int>(std::ceil(std::log2(std::max(2, psi))));
  const int num_trees = options_.num_trees;
  std::vector<std::unique_ptr<IsoTree>> trees(num_trees);
  auto build_tree = [&](int t) {
    Rng rng(TreeSeed(options_.seed, t));
    std::vector<size_t> sample =
        rng.SampleWithoutReplacement(static_cast<size_t>(n),
                                     static_cast<size_t>(psi));
    std::vector<int> items(sample.begin(), sample.end());
    trees[t] = std::make_unique<IsoTree>(x, std::move(items), max_depth,
                                         &rng);
  };
  // Per-sample path sums. Tree-outer within each row chunk keeps one tree's
  // nodes cache-resident across the chunk (row-outer cycles every tree
  // through cache per row and measures ~25% slower); each sample still
  // accumulates its terms in ascending tree order whatever the chunking, so
  // scores are bitwise reproducible across GRGAD_THREADS.
  std::vector<double> total_path(n, 0.0);
  auto score_rows = [&](size_t begin, size_t end) {
    for (int t = 0; t < num_trees; ++t) {
      const IsoTree& tree = *trees[t];
      for (size_t i = begin; i < end; ++i) {
        total_path[i] += tree.PathLength(x, static_cast<int>(i));
      }
    }
  };
  ParallelFor(num_trees, 1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) build_tree(static_cast<int>(t));
  });
  ParallelFor(n, 16, score_rows);
  const double c = AveragePathLength(psi);
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) {
    const double mean_path = total_path[i] / num_trees;
    score[i] = std::pow(2.0, -mean_path / std::max(c, 1e-12));
  }
  return score;
}

}  // namespace grgad
