// Determinism contract of the rebuilt scoring stage (see PERF.md, "Scoring
// stage"):
//   - every detector's scores are bitwise identical across GRGAD_THREADS
//     and across repeated runs;
//   - the product detectors agree with the frozen seed implementations in
//     src/od/reference_detectors.h at the score-rank level for the
//     GEMM-distance detectors (kNN, LOF) and bitwise for ECOD and GraphSNN;
//   - kNN and LOF perform exactly ONE pairwise-distance sweep per FitScore
//     (the seed computed the full matrix twice);
//   - sharing one NeighborIndex across ensemble members changes nothing.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/graph/graphsnn.h"
#include "src/od/detector.h"
#include "src/od/ecod.h"
#include "src/od/ensemble.h"
#include "src/od/knn.h"
#include "src/od/lof.h"
#include "src/od/neighbor_index.h"
#include "src/od/reference_detectors.h"
#include "src/util/rng.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

using testing::ScopedDegree;

/// Gaussian inliers + scattered far-away outliers, sized past one distance
/// panel (256 rows) so the panel loop's seams are exercised.
Matrix PlantedEmbeddings(uint64_t seed, int n_in = 300, int n_out = 40,
                         int dim = 8) {
  Rng rng(seed);
  Matrix x(n_in + n_out, dim);
  for (int i = 0; i < n_in; ++i) {
    for (int j = 0; j < dim; ++j) x(i, j) = rng.Normal(0.0, 1.0);
  }
  for (int i = n_in; i < n_in + n_out; ++i) {
    for (int j = 0; j < dim; ++j) {
      const double direction = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      x(i, j) = direction * rng.Uniform(6.0, 14.0);
    }
  }
  return x;
}

std::vector<double> Scores(DetectorKind kind, const Matrix& x,
                           uint64_t seed = 5) {
  auto detector = MakeOutlierDetector(kind, seed);
  return detector->FitScore(x);
}

TEST(ScoringDeterminismTest, BitwiseIdenticalAcrossThreadDegreesAndRuns) {
  const Matrix x = PlantedEmbeddings(101);
  for (DetectorKind kind : AllDetectorKinds()) {
    std::vector<double> at_one, at_four, again;
    {
      ScopedDegree degree(1);
      at_one = Scores(kind, x);
    }
    {
      ScopedDegree degree(4);
      at_four = Scores(kind, x);
      again = Scores(kind, x);
    }
    EXPECT_EQ(at_one, at_four) << DetectorKindName(kind);
    EXPECT_EQ(at_four, again) << DetectorKindName(kind);
  }
}

TEST(ScoringDeterminismTest, KnnAndLofMatchReferenceAtRankLevel) {
  const Matrix x = PlantedEmbeddings(102);
  EXPECT_EQ(RankNormalize(KnnDetector(5).FitScore(x)),
            RankNormalize(reference::KnnFitScore(x, 5)));
  EXPECT_EQ(RankNormalize(Lof(10).FitScore(x)),
            RankNormalize(reference::LofFitScore(x, 10)));
}

/// The bit patterns of `v`: EXPECT_EQ on doubles would let -0.0 == +0.0.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(double));
  return bits;
}

/// Small-integer coordinates in [0, levels): many rows and columns share
/// values, and every distance between such rows is computed exactly by
/// both the GEMM and the scalar seed paths.
Matrix IntegerMatrix(uint64_t seed, size_t rows, size_t cols, int levels) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      x(i, j) = static_cast<double>(rng.UniformInt(0, levels - 1));
    }
  }
  return x;
}

/// ECOD inputs whose columns are full of ties: integer-valued columns, a
/// constant column, a column mixing -0.0 and +0.0 (equal under <, different
/// bits), and a Gaussian column for contrast.
Matrix TiedColumns(uint64_t seed, size_t rows) {
  Rng rng(seed);
  Matrix x = IntegerMatrix(seed, rows, 5, 4);
  for (size_t i = 0; i < rows; ++i) {
    x(i, 1) = 3.5;
    x(i, 2) = i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : (i % 2 ? 1.0 : -1.0);
    x(i, 4) = rng.Normal(0.0, 1.0);
  }
  return x;
}

TEST(ScoringDeterminismTest, EcodBitwiseEqualsReference) {
  // ECOD reduces per-column contributions in ascending column order — the
  // seed's exact accumulation — so it is bitwise, not merely rank,
  // identical (the pipeline's default detector must not move). The
  // 1-column and 1-row shapes run the same blocked loop; the tie-heavy
  // shapes pin that every row of a tie run gets the seed's counts, and
  // 40 integer columns span two column blocks.
  Rng rng(103);
  Matrix pair_equal(2, 3);
  Matrix pair_distinct = Matrix::Gaussian(2, 3, &rng);
  pair_distinct(1, 2) = pair_distinct(0, 2);  // One tied column.
  for (const Matrix& x :
       {PlantedEmbeddings(103), Matrix::Gaussian(50, 1, &rng),
        Matrix::Gaussian(1, 6, &rng), TiedColumns(104, 120),
        IntegerMatrix(105, 70, 40, 3), IntegerMatrix(106, 1, 4, 2),
        pair_equal, pair_distinct, TiedColumns(107, 2)}) {
    for (int degree : {1, 4}) {
      ScopedDegree scoped(degree);
      EXPECT_EQ(Bits(Ecod().FitScore(x)), Bits(reference::EcodFitScore(x)))
          << x.rows() << "x" << x.cols() << " at degree " << degree;
    }
  }
}

TEST(ScoringDeterminismTest, KnnAndLofComputeDistancesExactlyOnce) {
  const Matrix x = PlantedEmbeddings(105, 60, 8, 4);
  internal::ResetDistanceSweeps();
  KnnDetector(5).FitScore(x);
  EXPECT_EQ(internal::DistanceSweeps(), 1u) << "knn";
  internal::ResetDistanceSweeps();
  Lof(10).FitScore(x);
  EXPECT_EQ(internal::DistanceSweeps(), 1u) << "lof";
  // The shared-index ensemble adds no sweeps beyond its single build.
  internal::ResetDistanceSweeps();
  EnsembleDetector::MakeDefault(5)->FitScore(x);
  EXPECT_EQ(internal::DistanceSweeps(), 1u) << "ensemble";
}

/// All ties: small-integer rows, and rows 150..299 duplicate rows of the
/// first half (exactly-zero distances off the diagonal).
Matrix DuplicatedIntegerRows(uint64_t seed) {
  Matrix x = IntegerMatrix(seed, 300, 4, 3);
  for (size_t i = 150; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) x(i, j) = x((i * 7) % 150, j);
  }
  return x;
}

TEST(ScoringDeterminismTest, FastIndexSelectsSeedNeighbors) {
  // GEMM distances differ from scalar distances only in FP contraction, so
  // on generic data the selected neighbor ids (and their order) match the
  // seed selection exactly. On the all-ties input both distance paths are
  // exact, so every selection must order the ties by ascending id as the
  // seed's sort does. k = 1000 clamps to n - 1 (a full ordering).
  for (const Matrix& x : {PlantedEmbeddings(106), DuplicatedIntegerRows(109)}) {
    const Matrix seed_dists = reference::PairwiseDistances(x);
    for (int k : {1, 10, 1000}) {
      const NeighborIndex seed = NeighborIndexFromDistances(seed_dists, k);
      for (int degree : {1, 4}) {
        ScopedDegree scoped(degree);
        EXPECT_EQ(BuildNeighborIndex(x, k).ids, seed.ids)
            << x.rows() << " rows, k=" << k << " at degree " << degree;
      }
      // The precomputed-distances overload (no sweep of its own) agrees
      // with both the index and the seed double-sweep KNearestNeighbors.
      internal::ResetDistanceSweeps();
      const auto from_dists = KNearestNeighborsFromDistances(seed_dists, k);
      EXPECT_EQ(internal::DistanceSweeps(), 0u);
      EXPECT_EQ(from_dists, reference::KNearestNeighbors(x, k))
          << x.rows() << " rows, k=" << k;
      // A k-consumer reading a prefix of a larger shared index sees exactly
      // its own index.
      const NeighborIndex fast = BuildNeighborIndex(x, k);
      const NeighborIndex wide = BuildNeighborIndex(x, 2 * k);
      for (int i = 0; i < fast.n; ++i) {
        for (int pos = 0; pos < fast.k; ++pos) {
          EXPECT_EQ(wide.Neighbor(i, pos), fast.Neighbor(i, pos));
          EXPECT_EQ(wide.Distance(i, pos), fast.Distance(i, pos));
        }
      }
    }
  }
  // Two identical rows: each is the other's only neighbor, at distance 0.
  const NeighborIndex twin = BuildNeighborIndex(Matrix(2, 3), 5);
  EXPECT_EQ(twin.ids, (std::vector<int>{1, 0}));
  EXPECT_EQ(Bits(twin.dists), Bits({0.0, 0.0}));
}

TEST(ScoringDeterminismTest, PairwiseDistancesSymmetricZeroDiag) {
  const Matrix x = PlantedEmbeddings(107);
  const Matrix d = PairwiseDistances(x);
  for (size_t i = 0; i < x.rows(); i += 37) {
    EXPECT_EQ(d(i, i), 0.0);
    for (size_t j = 0; j < x.rows(); j += 11) {
      EXPECT_EQ(d(i, j), d(j, i));
    }
  }
  // Within FP-contraction tolerance of the scalar seed distances.
  EXPECT_TRUE(d.ApproxEquals(reference::PairwiseDistances(x), 1e-9));
}

TEST(ScoringDeterminismTest, SharedIndexMatchesStandaloneMembers) {
  // An ensemble scoring every member through one shared index must combine
  // exactly the scores the members produce standalone (each building its
  // own index).
  const Matrix x = PlantedEmbeddings(108, 150, 20, 6);
  std::vector<std::unique_ptr<OutlierDetector>> members;
  members.push_back(std::make_unique<KnnDetector>(5));
  members.push_back(std::make_unique<Lof>(10));
  EnsembleDetector ensemble(std::move(members));
  const auto combined = ensemble.FitScore(x);

  const auto knn_ranks = RankNormalize(KnnDetector(5).FitScore(x));
  const auto lof_ranks = RankNormalize(Lof(10).FitScore(x));
  ASSERT_EQ(combined.size(), knn_ranks.size());
  for (size_t i = 0; i < combined.size(); ++i) {
    EXPECT_EQ(combined[i], 0.5 * (knn_ranks[i] + lof_ranks[i])) << i;
  }
}

TEST(ScoringDeterminismTest, GraphSnnOptMatchesSeedOnExampleGraph) {
  const Dataset d = GenExampleGraph({});
  const std::vector<double> seed = reference::GraphSnnEdgeWeights(d.graph, 1.0);
  for (int degree : {1, 4}) {
    ScopedDegree scoped(degree);
    EXPECT_EQ(GraphSnnEdgeWeights(d.graph, 1.0), seed) << degree;
  }
}

TEST(ScoringDeterminismTest, ScoringStageProfileEmitsSubStageTimings) {
  Rng rng(7);
  const Matrix embeddings = Matrix::Gaussian(24, 4, &rng);
  std::vector<std::vector<int>> groups(24);
  for (int i = 0; i < 24; ++i) groups[i] = {i};
  TpGrGadOptions options;
  options.detector = DetectorKind::kLof;

  RunContext plain;
  ASSERT_TRUE(RunScoringStage(embeddings, groups, options, &plain).ok());
  ASSERT_EQ(plain.stage_timings().size(), 1u);
  EXPECT_EQ(plain.stage_timings()[0].stage, "scoring");

  RunContext profiled;
  profiled.profile = true;
  ASSERT_TRUE(RunScoringStage(embeddings, groups, options, &profiled).ok());
  std::vector<std::string> stages;
  for (const StageTiming& t : profiled.stage_timings()) {
    stages.push_back(t.stage);
  }
  EXPECT_EQ(stages, (std::vector<std::string>{"scoring/neighbors",
                                              "scoring/detect", "scoring"}));
}

}  // namespace
}  // namespace grgad
