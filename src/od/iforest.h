// Isolation Forest (Liu, Ting & Zhou, 2008).
//
// Trees are grown from independent per-tree RNG streams derived from
// options.seed (a SplitMix64-style mix of seed and tree id), so tree
// construction is embarrassingly parallel and the result is identical
// whatever the pool size (one worker included). Scoring accumulates each
// sample's path lengths over trees in ascending tree order, so it too is
// bitwise reproducible across runs and GRGAD_THREADS. Note: the per-tree streams change the forest (and
// therefore the scores) relative to the pre-scoring-stage implementation,
// which threaded ONE sequential stream through all trees and could not
// parallelize; that original is frozen verbatim in
// src/od/reference_detectors.h as the benchmark baseline.
#ifndef GRGAD_OD_IFOREST_H_
#define GRGAD_OD_IFOREST_H_

#include "src/od/detector.h"

namespace grgad {

/// Isolation-forest hyperparameters.
struct IsolationForestOptions {
  int num_trees = 100;
  int subsample = 256;  ///< Clamped to the sample count.
  uint64_t seed = 7;
};

/// Isolation-forest detector. Score = 2^(-E[path length]/c(psi)), in (0, 1),
/// higher = easier to isolate = more anomalous.
class IsolationForest : public OutlierDetector {
 public:
  explicit IsolationForest(IsolationForestOptions options = {})
      : options_(options) {}
  std::vector<double> FitScore(const Matrix& x) override;
  std::string Name() const override { return "iforest"; }

 private:
  IsolationForestOptions options_;
};

/// Average unsuccessful-search path length c(n) of a BST (normalizer).
double AveragePathLength(int n);

}  // namespace grgad

#endif  // GRGAD_OD_IFOREST_H_
