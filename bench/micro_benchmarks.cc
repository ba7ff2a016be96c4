// google-benchmark microbenchmarks for the substrates: dense/sparse linear
// algebra, graph algorithms, GraphSNN weighting, detectors, and one TPGCL
// training epoch. These are throughput references, not paper figures.
//
// Before the google-benchmark suites run, main() measures six axes —
// end-to-end training epochs (optimized path only, with arena accounting),
// the candidate stage (frozen serial sampler/pattern/augment paths vs the
// workspace/view product path), the scoring stage (frozen seed detectors vs
// the GEMM/parallel product detectors),
// the tensor kernels on the training-hot shapes, the resident daemon's
// round-trip latency, and the mutation fast path (slack-CSR apply, ball
// invalidation, dirty-anchor incremental refresh vs full recompute) — and
// writes the results to bench_results/micro.json (schema in PERF.md),
// giving every PR a machine-readable before/after perf trajectory.
// Set GRGAD_MICRO_JSON=0 to skip that phase, and GRGAD_MICRO_JSON_ONLY=1 to
// run only it.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/refresh.h"
#include "src/data/example_graph.h"
#include "src/gae/gae_base.h"
#include "src/graph/dynamic_graph.h"
#include "src/gcl/augmentations.h"
#include "src/gcl/tpgcl.h"
#include "src/graph/algorithms.h"
#include "src/graph/graphsnn.h"
#include "src/graph/operators.h"
#include "src/graph/subgraph_view.h"
#include "src/graph/traversal_workspace.h"
#include "src/sampling/dirty_tracker.h"
#include "src/sampling/group_sampler.h"
#include "src/od/ecod.h"
#include "src/od/iforest.h"
#include "src/od/knn.h"
#include "src/od/lof.h"
#include "src/od/reference_detectors.h"
#include "src/sampling/pattern_search.h"
#include "src/serve/server.h"
#include "src/serve/wal.h"
#include "src/tensor/arena.h"
#include "src/tensor/matrix.h"
#include "src/tensor/reference_kernels.h"
#include "src/tensor/sparse.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/timer.h"
#include "src/viz/tsne.h"

namespace grgad {
namespace {

Matrix RandomMatrix(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Gaussian(r, c, &rng);
}

Graph BenchGraph(int n, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int v = 1; v < n; ++v) {
    b.AddEdge(v, static_cast<int>(rng.UniformInt(static_cast<uint64_t>(v))));
  }
  for (int e = 0; e < n; ++e) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v);
  }
  Matrix x = Matrix::Gaussian(n, 16, &rng);
  return b.Build(std::move(x));
}

void BM_DenseMatMul(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix a = RandomMatrix(n, n, 1);
  Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_TallSkinnyMatMul(benchmark::State& state) {
  // The GCN shape: (n x d) * (d x h).
  Matrix a = RandomMatrix(4096, 256, 3);
  Matrix b = RandomMatrix(256, 64, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_TallSkinnyMatMul);

void BM_Spmm(benchmark::State& state) {
  const int n = state.range(0);
  Graph g = BenchGraph(n, 5);
  auto op = NormalizedAdjacency(g);
  Matrix x = RandomMatrix(n, 64, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op->Spmm(x));
  }
  state.SetItemsProcessed(state.iterations() * op->nnz() * 64);
}
BENCHMARK(BM_Spmm)->Arg(1000)->Arg(10000);

void BM_BfsDistances(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BfsDistances(g, 0));
  }
}
BENCHMARK(BM_BfsDistances)->Arg(1000)->Arg(10000);

void BM_CyclesThrough(benchmark::State& state) {
  Graph g = BenchGraph(2000, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CyclesThrough(g, 0, 8, 32));
  }
}
BENCHMARK(BM_CyclesThrough);

void BM_GraphSnnWeights(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraphSnnAdjacency(g));
  }
}
BENCHMARK(BM_GraphSnnWeights)->Arg(1000)->Arg(5000);

void BM_StandardizedPower(benchmark::State& state) {
  Graph g = BenchGraph(2000, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StandardizedPower(g, state.range(0)));
  }
}
BENCHMARK(BM_StandardizedPower)->Arg(3)->Arg(5)->Arg(7);

void BM_PatternSearch(benchmark::State& state) {
  Graph g = BenchGraph(200, 11);
  std::vector<int> group;
  for (int v = 0; v < 24; ++v) group.push_back(v);
  Graph sub = g.InducedSubgraph(group);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchPatterns(sub));
  }
}
BENCHMARK(BM_PatternSearch);

void BM_Ecod(benchmark::State& state) {
  Matrix x = RandomMatrix(state.range(0), 64, 12);
  Ecod ecod;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecod.FitScore(x));
  }
}
BENCHMARK(BM_Ecod)->Arg(256)->Arg(1024);

void BM_IsolationForest(benchmark::State& state) {
  Matrix x = RandomMatrix(512, 64, 13);
  IsolationForestOptions options;
  options.num_trees = 50;
  IsolationForest forest(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.FitScore(x));
  }
}
BENCHMARK(BM_IsolationForest);

void BM_TsneIterations(benchmark::State& state) {
  Matrix x = RandomMatrix(128, 32, 14);
  TsneOptions options;
  options.iterations = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tsne(x, options));
  }
}
BENCHMARK(BM_TsneIterations);

void BM_TpgclEpoch(benchmark::State& state) {
  DatasetOptions data_options;
  data_options.seed = 1;
  const Dataset d = GenExampleGraph(data_options);
  std::vector<std::vector<int>> candidates = d.anomaly_groups;
  for (int i = 0; i < 20; ++i) {
    candidates.push_back({i, i + 1, i + 2, i + 3});
  }
  for (auto _ : state) {
    TpgclOptions options;
    options.epochs = 1;
    Tpgcl tpgcl(options);
    benchmark::DoNotOptimize(tpgcl.FitEmbed(d.graph, candidates));
  }
}
BENCHMARK(BM_TpgclEpoch);

// ---------------------------------------------------------------------------
// Seed-vs-optimized kernel comparison -> bench_results/micro.json.
// ---------------------------------------------------------------------------

struct KernelResult {
  std::string name;
  std::string shape;
  double seed_ms = 0.0;
  double opt_ms = 0.0;
};

/// Median-of-reps wall-clock milliseconds for one call of f (after a warmup
/// call, which also populates caches like the SpmmTransposeThis transpose).
template <typename F>
double MedianMs(F&& f) {
  f();  // Warmup.
  std::vector<double> samples;
  Timer total;
  // At least 5 samples; keep sampling up to ~0.6 s for stable medians.
  while (samples.size() < 5 ||
         (total.ElapsedMillis() < 600.0 && samples.size() < 25)) {
    Timer t;
    f();
    samples.push_back(t.ElapsedMillis());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

SparseMatrix BenchAdjacency(int n, int avg_degree, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(static_cast<size_t>(n) * avg_degree);
  for (int e = 0; e < n * avg_degree; ++e) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    t.push_back({u, v, 1.0});
  }
  return SparseMatrix::FromTriplets(n, n, std::move(t));
}

std::vector<KernelResult> CompareKernels() {
  std::vector<KernelResult> results;
  auto add = [&](std::string name, std::string shape, auto&& seed_fn,
                 auto&& opt_fn) {
    KernelResult r;
    r.name = std::move(name);
    r.shape = std::move(shape);
    r.seed_ms = MedianMs(seed_fn);
    r.opt_ms = MedianMs(opt_fn);
    std::printf("  %-24s %-24s seed %8.3f ms   opt %8.3f ms   %.2fx\n",
                r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                r.seed_ms / r.opt_ms);
    results.push_back(std::move(r));
  };

  // Dense kernels on the acceptance shape and the GCN tall-skinny shape.
  {
    Matrix a = RandomMatrix(512, 512, 21);
    Matrix b = RandomMatrix(512, 512, 22);
    add(
        "matmul", "512x512x512",
        [&] { benchmark::DoNotOptimize(reference::MatMul(a, b)); },
        [&] { benchmark::DoNotOptimize(MatMul(a, b)); });
    add(
        "matmul_transpose_b", "512x512x512",
        [&] { benchmark::DoNotOptimize(reference::MatMulTransposeB(a, b)); },
        [&] { benchmark::DoNotOptimize(MatMulTransposeB(a, b)); });
    add(
        "matmul_transpose_a", "512x512x512",
        [&] { benchmark::DoNotOptimize(reference::MatMulTransposeA(a, b)); },
        [&] { benchmark::DoNotOptimize(MatMulTransposeA(a, b)); });
    add(
        "transpose", "512x512",
        [&] { benchmark::DoNotOptimize(reference::Transpose(a)); },
        [&] { benchmark::DoNotOptimize(a.Transpose()); });
  }
  {
    Matrix a = RandomMatrix(4096, 256, 23);
    Matrix b = RandomMatrix(256, 64, 24);
    add(
        "matmul", "4096x256x64",
        [&] { benchmark::DoNotOptimize(reference::MatMul(a, b)); },
        [&] { benchmark::DoNotOptimize(MatMul(a, b)); });
  }

  // Sparse kernels on a 10k-node adjacency with 64-wide features (the GCN
  // message-passing shape) — forward and the autograd backward.
  {
    SparseMatrix s = BenchAdjacency(10000, 4, 25);
    Matrix x = RandomMatrix(10000, 64, 26);
    add(
        "spmm", "10000x10000(nnz~40k)x64",
        [&] { benchmark::DoNotOptimize(reference::Spmm(s, x)); },
        [&] { benchmark::DoNotOptimize(s.Spmm(x)); });
    add(
        "spmm_transpose_this", "10000x10000(nnz~40k)x64",
        [&] { benchmark::DoNotOptimize(reference::SpmmTransposeThis(s, x)); },
        [&] { benchmark::DoNotOptimize(s.SpmmTransposeThis(x)); });
  }

  // Elementwise map: the seed's per-element std::function dispatch vs the
  // inlined MapFn fast path used by autograd's ReLU/Sigmoid/Tanh.
  {
    Matrix x = RandomMatrix(2048, 256, 27);
    const std::function<double(double)> relu = [](double v) {
      return v > 0.0 ? v : 0.0;
    };
    add(
        "map_relu", "2048x256",
        [&] { benchmark::DoNotOptimize(reference::Map(x, relu)); },
        [&] {
          benchmark::DoNotOptimize(
              x.MapFn([](double v) { return v > 0.0 ? v : 0.0; }));
        });
  }
  return results;
}

// ---------------------------------------------------------------------------
// Candidate-stage comparison (frozen serial Alg. 1/Alg. 2 paths vs the
// anchor-parallel workspace/view product path) -> the grgad-micro-v8
// "candidates" table.
// ---------------------------------------------------------------------------

struct CandidateResult {
  std::string name;
  std::string shape;
  double seed_ms = 0.0;  ///< Seed-shaped serial reference.
  double opt_ms = 0.0;   ///< Workspace/view product path.
  /// Sampler only: TraversalWorkspace buffer growths across one steady-state
  /// Sample call (must be 0 — pooled workspaces fully warm after the timed
  /// runs). -1 for entries that do not use workspaces.
  int64_t steady_workspace_allocs = -1;
};

std::vector<CandidateResult> CompareCandidateKernels() {
  std::vector<CandidateResult> results;
  results.reserve(3);  // add() returns a reference into this vector.
  auto add = [&](std::string name, std::string shape, auto&& seed_fn,
                 auto&& opt_fn) -> CandidateResult& {
    CandidateResult r;
    r.name = std::move(name);
    r.shape = std::move(shape);
    r.seed_ms = MedianMs(seed_fn);
    r.opt_ms = MedianMs(opt_fn);
    std::printf("  %-24s %-24s seed %8.3f ms   opt %8.3f ms   %.2fx\n",
                r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                r.seed_ms / r.opt_ms);
    results.push_back(std::move(r));
    return results.back();
  };

  // The acceptance shape: Alg. 1 over a transaction-scale random graph with
  // an anchor set dense enough that path/tree/cycle search all fire.
  {
    Graph g = BenchGraph(8000, 33);
    std::vector<int> anchors;
    for (int v = 0; v < g.num_nodes(); v += 125) anchors.push_back(v);
    GroupSampler sampler{GroupSamplerOptions{}};
    CandidateResult& r = add(
        "sampler", "n=8000,anchors=64",
        [&] { benchmark::DoNotOptimize(sampler.SampleReference(g, anchors)); },
        [&] { benchmark::DoNotOptimize(sampler.Sample(g, anchors)); });
    // Steady-state workspace accounting: the timed opt runs above warmed
    // every pooled workspace; one more call must not grow anything.
    const uint64_t before = TraversalWorkspace::TotalHeapAllocs();
    benchmark::DoNotOptimize(sampler.Sample(g, anchors));
    r.steady_workspace_allocs =
        static_cast<int64_t>(TraversalWorkspace::TotalHeapAllocs() - before);
    std::printf("  %-24s steady workspace heap allocs: %lld\n", "",
                static_cast<long long>(r.steady_workspace_allocs));
  }

  // Alg. 2 consumers on one candidate group: materialized InducedSubgraph
  // (seed) vs a retargeted SubgraphView (opt).
  {
    Graph g = BenchGraph(200, 11);
    std::vector<int> group;
    for (int v = 0; v < 24; ++v) group.push_back(v);
    SubgraphView view;
    add(
        "pattern_search", "group=24",
        [&] {
          const Graph sub = g.InducedSubgraph(group);
          benchmark::DoNotOptimize(SearchPatterns(sub));
        },
        [&] {
          view.Reset(g, group);
          benchmark::DoNotOptimize(SearchPatterns(view));
        });
    const Graph sub = g.InducedSubgraph(group);
    const FoundPatterns patterns = SearchPatterns(sub);
    add(
        "augment", "group=24,PPA+PBA",
        [&] {
          Rng rng(5);
          const Graph seed_sub = g.InducedSubgraph(group);
          benchmark::DoNotOptimize(
              Augment(seed_sub, AugmentationKind::kPpa, patterns, &rng));
          benchmark::DoNotOptimize(
              Augment(seed_sub, AugmentationKind::kPba, patterns, &rng));
        },
        [&] {
          Rng rng(5);
          view.Reset(g, group);
          benchmark::DoNotOptimize(
              Augment(view, AugmentationKind::kPpa, patterns, &rng));
          benchmark::DoNotOptimize(
              Augment(view, AugmentationKind::kPba, patterns, &rng));
        });
  }
  return results;
}

// ---------------------------------------------------------------------------
// Scoring-stage comparison (frozen seed detectors vs the blocked/parallel
// product detectors) -> the "scoring" table.
// ---------------------------------------------------------------------------

struct ScoringResult {
  std::string name;
  std::string shape;
  double seed_ms = 0.0;  ///< Frozen seed implementation (reference_detectors).
  double opt_ms = 0.0;   ///< Product code.
};

std::vector<ScoringResult> CompareScoringKernels() {
  std::vector<ScoringResult> results;
  auto add = [&](std::string name, std::string shape, auto&& seed_fn,
                 auto&& opt_fn) {
    ScoringResult r;
    r.name = std::move(name);
    r.shape = std::move(shape);
    r.seed_ms = MedianMs(seed_fn);
    r.opt_ms = MedianMs(opt_fn);
    std::printf("  %-24s %-24s seed %8.3f ms   opt %8.3f ms   %.2fx\n",
                r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                r.seed_ms / r.opt_ms);
    results.push_back(std::move(r));
  };

  // The acceptance shape: group embeddings at serving scale (n groups x
  // 64-d TPGCL embeddings).
  Matrix x = RandomMatrix(2048, 64, 41);
  add(
      "pairwise", "2048x64",
      [&] { benchmark::DoNotOptimize(reference::PairwiseDistances(x)); },
      [&] { benchmark::DoNotOptimize(PairwiseDistances(x)); });
  add(
      "knn", "2048x64,k=5",
      [&] { benchmark::DoNotOptimize(reference::KnnFitScore(x, 5)); },
      [&] { benchmark::DoNotOptimize(KnnDetector(5).FitScore(x)); });
  add(
      "lof", "2048x64,k=10",
      [&] { benchmark::DoNotOptimize(reference::LofFitScore(x, 10)); },
      [&] { benchmark::DoNotOptimize(Lof(10).FitScore(x)); });
  add(
      "ecod", "2048x64",
      [&] { benchmark::DoNotOptimize(reference::EcodFitScore(x)); },
      [&] { benchmark::DoNotOptimize(Ecod().FitScore(x)); });
  {
    IsolationForestOptions options;
    options.num_trees = 100;
    options.seed = 7;
    add(
        "iforest", "2048x64,trees=100",
        [&] {
          benchmark::DoNotOptimize(
              reference::IsolationForestFitScore(x, options));
        },
        [&] {
          benchmark::DoNotOptimize(IsolationForest(options).FitScore(x));
        });
  }
  {
    Graph g = BenchGraph(5000, 9);
    add(
        "graphsnn", "n=5000",
        [&] {
          benchmark::DoNotOptimize(reference::GraphSnnEdgeWeights(g, 1.0));
        },
        [&] { benchmark::DoNotOptimize(GraphSnnEdgeWeights(g, 1.0)); });
  }
  return results;
}

// ---------------------------------------------------------------------------
// End-to-end training epochs (arena + fused kernels) with arena accounting.
// ---------------------------------------------------------------------------

struct EpochResult {
  std::string name;
  std::string shape;
  double opt_ms = 0.0;  ///< Per-epoch ms, arena + fused kernels.
  uint64_t warmup_heap_allocs = 0;  ///< Buffers the warmup fit allocated.
  /// Heap allocations across the ENTIRE steady-state fit (not per epoch):
  /// 0 means every post-warmup epoch was served from the free lists.
  uint64_t steady_heap_allocs = 0;
  uint64_t steady_reused = 0;        ///< Buffers recycled per epoch.
  uint64_t steady_bytes_served = 0;  ///< Bytes recycled per epoch.
};

/// Collects arena stats (one warmup fit on a fresh arena, stats reset, one
/// measured fit whose epochs are all steady-state), then times epochs on
/// the now-warm arena.
///
/// Per-epoch wall time is isolated from the fixed setup cost (operator
/// building, pair sampling, pattern search) by differencing two epoch
/// counts: (T(hi) - T(lo)) / (hi - lo), one pair per round, with the
/// per-round differences medianed so allocator/CPU drift on a shared box
/// cannot masquerade as a change.
template <typename MakeFit>
EpochResult MeasureEpochs(std::string name, std::string shape,
                          MakeFit&& make_fit) {
  constexpr int kLo = 2, kHi = 12, kRounds = 7;
  EpochResult r;
  r.name = std::move(name);
  r.shape = std::move(shape);

  MatrixArena arena;
  auto fit = make_fit(&arena);
  fit(1);
  r.warmup_heap_allocs = arena.stats().heap_allocs;
  arena.ResetStats();
  fit(kLo);
  const MatrixArena::Stats steady = arena.stats();
  r.steady_heap_allocs = steady.heap_allocs;
  r.steady_reused = steady.reused / kLo;
  r.steady_bytes_served = steady.bytes_served / kLo;

  std::vector<double> epoch_ms;
  for (int round = 0; round < kRounds; ++round) {
    Timer lo;
    fit(kLo);
    const double t_lo = lo.ElapsedMillis();
    Timer hi;
    fit(kHi);
    const double t_hi = hi.ElapsedMillis();
    epoch_ms.push_back((t_hi - t_lo) / (kHi - kLo));
  }
  std::sort(epoch_ms.begin(), epoch_ms.end());
  r.opt_ms = epoch_ms[kRounds / 2];

  std::printf("  %-24s %-24s opt %8.3f ms   steady heap allocs %llu\n",
              r.name.c_str(), r.shape.c_str(), r.opt_ms,
              static_cast<unsigned long long>(r.steady_heap_allocs));
  return r;
}

std::vector<EpochResult> MeasureTrainingEpochs() {
  std::vector<EpochResult> results;

  // TPGCL epoch on the paper's example graph with a realistic candidate
  // set (anomaly groups + sliding 8-node windows): two batched GCN passes
  // + MINE + Adam per epoch.
  {
    DatasetOptions data_options;
    data_options.seed = 1;
    const Dataset dataset = GenExampleGraph(data_options);
    std::vector<std::vector<int>> candidates = dataset.anomaly_groups;
    for (int i = 0; i + 8 < dataset.graph.num_nodes() &&
                    candidates.size() < 32;
         i += 4) {
      candidates.push_back({i, i + 1, i + 2, i + 3, i + 4, i + 5, i + 6,
                            i + 7});
    }
    results.push_back(MeasureEpochs(
        "tpgcl_epoch", "example,groups=32",
        [&dataset, &candidates](MatrixArena* arena) {
          return [&dataset, &candidates, arena](int epochs) {
            TpgclOptions options;
            options.epochs = epochs;
            options.seed = 17;
            options.arena = arena;
            benchmark::DoNotOptimize(
                Tpgcl(options).FitEmbed(dataset.graph, candidates));
          };
        }));
  }
  // GAE epoch on a mid-sized random graph with the default architecture:
  // the MH-GAE / DOMINANT hot loop (2-layer GCN + two decoders + Adam).
  {
    Rng rng(31);
    const int n = 3000, d = 32;
    GraphBuilder b(n);
    for (int v = 1; v < n; ++v) {
      b.AddEdge(v, static_cast<int>(rng.UniformInt(static_cast<uint64_t>(v))));
    }
    for (int e = 0; e < 3 * n; ++e) {
      const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      if (u != v) b.AddEdge(u, v);
    }
    Graph g = b.Build(Matrix::Gaussian(n, d, &rng));
    results.push_back(MeasureEpochs(
        "gae_epoch", "n=3000,d=32,h=64,e=64", [&g](MatrixArena* arena) {
          return [&g, arena](int epochs) {
            GaeOptions options;
            options.epochs = epochs;
            options.seed = 17;
            options.arena = arena;
            benchmark::DoNotOptimize(GcnGae(options).Fit(g));
          };
        }));
  }

  return results;
}

// ---------------------------------------------------------------------------
// Serve round-trip: one rescore request through a resident, prewarmed
// ServeDaemon over a local pipe pair — the steady-state latency a
// `grgad serve` client pays, transport included -> the "serve" table.
// ---------------------------------------------------------------------------

struct ServeResult {
  std::string name;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  int round_trips = 0;
};

std::vector<ServeResult> MeasureServeRoundTrip() {
  std::vector<ServeResult> results;
  Dataset dataset = GenExampleGraph();
  TpGrGadOptions options;
  options.seed = 42;
  options.mh_gae.base.epochs = 10;
  options.mh_gae.base.hidden_dim = 16;
  options.mh_gae.base.embed_dim = 8;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 8;
  options.tpgcl.hidden_dim = 16;
  options.tpgcl.embed_dim = 8;
  options.serve_prewarm_workspaces = 4;
  options.ReseedStages();
  auto trained = RunPipeline(dataset.graph, options);
  if (!trained.ok()) {
    std::printf("  !! serve bench training failed: %s\n",
                trained.status().ToString().c_str());
    return results;
  }
  ServeOptions serve_options;
  serve_options.pipeline = options;
  ServeDaemon daemon(dataset.graph, std::move(trained).value(),
                     serve_options);
  daemon.Prewarm();

  int c2s[2] = {-1, -1};
  int s2c[2] = {-1, -1};
  if (::pipe(c2s) != 0 || ::pipe(s2c) != 0) {
    std::printf("  !! serve bench: pipe() failed\n");
    return results;
  }
  CancelToken stop;
  std::thread server([&daemon, &stop, in = c2s[0], out = s2c[1]] {
    LineChannel channel(in, out, /*own_fds=*/true);
    (void)daemon.Serve(&channel, stop);
  });
  {
    LineChannel client(s2c[0], c2s[1], /*own_fds=*/true);
    const std::string request =
        R"({"id": 1, "op": "rescore", "detector": "ensemble", "top": 3})";
    std::string response;
    bool eof = false;
    auto round_trip = [&]() -> bool {
      if (!client.WriteLine(request).ok()) return false;
      return client.ReadLine(&response, &eof).ok() && !eof;
    };
    constexpr int kWarmup = 2;
    constexpr int kRoundTrips = 20;
    bool ok = true;
    for (int i = 0; i < kWarmup && ok; ++i) ok = round_trip();
    ServeResult r;
    r.name = "round_trip";
    r.min_ms = 0.0;
    double total_ms = 0.0;
    for (int i = 0; i < kRoundTrips && ok; ++i) {
      Timer timer;
      ok = round_trip();
      const double ms = timer.ElapsedSeconds() * 1000.0;
      total_ms += ms;
      r.min_ms = i == 0 ? ms : std::min(r.min_ms, ms);
      ++r.round_trips;
    }
    if (ok && r.round_trips > 0) {
      r.mean_ms = total_ms / r.round_trips;
      std::printf("  serve %-15s mean %9.3f ms   min %9.3f ms   (%d trips)\n",
                  r.name.c_str(), r.mean_ms, r.min_ms, r.round_trips);
      results.push_back(std::move(r));
    } else {
      std::printf("  !! serve bench: round trip failed\n");
    }
  }  // Client hangs up; the daemon drains and Serve() returns.
  server.join();
  return results;
}

// ---------------------------------------------------------------------------
// Mutation fast path: apply / invalidate / incremental refresh on a live
// DynamicGraph vs what serving paid before it (a from-scratch CSR rebuild
// per mutation; a full-anchor resample + embed + score per refresh) -> the
// "mutations" table. Radius-local sampler options (hop-count search,
// pair_radius = cycle_max_len = 4) so ball invalidation is sound and a
// single-edge mutation dirties a small anchor subset.
// ---------------------------------------------------------------------------

struct MutationResult {
  std::string name;
  std::string shape;
  double seed_ms = 0.0;  ///< Pre-PR path; 0 = no seed comparison (no gate).
  double opt_ms = 0.0;
  double fanout = -1.0;  ///< Mean dirty anchors per mutation; -1 = n/a.
};

std::vector<MutationResult> MeasureMutations() {
  std::vector<MutationResult> results;
  const Graph g = BenchGraph(8000, 33);
  // Serving-shaped refresh configuration: every node is an anchor (per-node
  // anomaly coverage, the dense end of what a daemon hosts), candidate
  // search is radius-3 local, and the scored group set is capped. This is
  // the regime the dirty-anchor machinery exists for — a full recompute
  // resamples all 8000 anchors while one edge flip dirties only the ~190
  // anchors whose radius-3 ball the edge touches.
  std::vector<int> anchors(g.num_nodes());
  std::iota(anchors.begin(), anchors.end(), 0);
  TpGrGadOptions options;
  options.seed = 29;
  options.sampler.path_mode = PathSearchMode::kUnweighted;
  options.sampler.pair_radius = 3;
  options.sampler.cycle_max_len = 3;
  options.sampler.max_paths_per_anchor = 4;
  options.sampler.max_cycles_per_anchor = 4;
  options.sampler.max_group_size = 16;
  options.sampler.max_groups = 128;
  options.ReseedStages();
  const int radius = InvalidationRadius(options.sampler);

  // A deterministic absent edge to churn throughout.
  Rng rng(3);
  int mu = -1, mv = -1;
  while (mu < 0) {
    const int a = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    const int b = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    if (a != b && !g.HasEdge(a, b)) {
      mu = std::min(a, b);
      mv = std::max(a, b);
    }
  }

  auto print = [](const MutationResult& r) {
    if (r.seed_ms > 0.0) {
      std::printf("  %-24s %-24s seed %8.3f ms   opt %8.3f ms   %.2fx\n",
                  r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                  r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9));
    } else {
      std::printf("  %-24s %-24s                  opt %8.3f ms\n",
                  r.name.c_str(), r.shape.c_str(), r.opt_ms);
    }
  };

  // apply_edge: one add+remove round trip on the slack CSR vs the pre-PR
  // equivalent, a from-scratch GraphBuilder rebuild of the mutated graph.
  {
    DynamicGraph dg(g);
    MutationResult r;
    r.name = "apply_edge";
    r.shape = "n=8000";
    r.seed_ms = MedianMs([&] {
      GraphBuilder b(g.num_nodes());
      g.ForEachEdge([&b](int u, int v) { b.AddEdge(u, v); });
      b.AddEdge(mu, mv);
      benchmark::DoNotOptimize(b.Build(g.attributes()));
    });
    r.opt_ms = MedianMs([&] {
      dg.AddEdge(mu, mv);
      dg.RemoveEdge(mu, mv);
    });
    print(r);
    results.push_back(std::move(r));
  }

  // invalidate: one radius-R ball mark from the mutated edge.
  {
    DynamicGraph dg(g);
    dg.AddEdge(mu, mv);
    AnchorDirtyTracker tracker;
    tracker.Reset(anchors, radius, g.num_nodes());
    MutationResult r;
    r.name = "invalidate";
    r.shape = "n=8000,anchors=8000,r=3";
    int fanout = 0;
    r.opt_ms = MedianMs([&] {
      fanout = tracker.MarkFromEdge(dg, mu, mv);
      benchmark::DoNotOptimize(fanout);
    });
    r.fanout = static_cast<double>(fanout);
    print(r);
    std::printf("  %-24s invalidation fanout: %d of %zu anchors\n", "",
                fanout, anchors.size());
    results.push_back(std::move(r));
  }

  // refresh: apply + invalidate + dirty-subset refresh on a primed state vs
  // the pre-PR cost of the same request — a full-anchor resample + pooled
  // embed + score of the mutated graph (RefreshArtifacts on an unprimed
  // state; conservative, since pre-PR serving also re-trained TPGCL).
  {
    DynamicGraph dg(g);
    RefreshState state;
    PipelineArtifacts artifacts;
    artifacts.seed = options.seed;
    artifacts.anchors = anchors;
    const Status primed = RefreshArtifacts(g, options, {}, &state, &artifacts);
    if (!primed.ok()) {
      std::printf("  !! mutation bench priming failed: %s\n",
                  primed.ToString().c_str());
      return results;
    }
    AnchorDirtyTracker tracker;
    tracker.Reset(anchors, radius, g.num_nodes());

    MutationResult r;
    r.name = "refresh";
    r.shape = "n=8000,anchors=8000,r=3";
    bool add_next = true;
    double fanout_total = 0.0;
    int refreshes = 0;
    r.opt_ms = MedianMs([&] {
      // Toggle the edge so every sample mutates (adds mark after applying,
      // removes before — the tracker's soundness contract).
      if (add_next) {
        dg.AddEdge(mu, mv);
        tracker.MarkFromEdge(dg, mu, mv);
      } else {
        tracker.MarkFromEdge(dg, mu, mv);
        dg.RemoveEdge(mu, mv);
      }
      add_next = !add_next;
      const std::vector<int> dirty = tracker.TakeDirtyIndices();
      fanout_total += static_cast<double>(dirty.size());
      ++refreshes;
      const Status status =
          RefreshArtifacts(dg.PackedView(), options, dirty, &state,
                           &artifacts);
      if (!status.ok()) {
        std::printf("  !! incremental refresh failed: %s\n",
                    status.ToString().c_str());
      }
    });
    r.fanout = refreshes > 0 ? fanout_total / refreshes : -1.0;
    r.seed_ms = MedianMs([&] {
      RefreshState full_state;
      PipelineArtifacts full;
      full.seed = options.seed;
      full.anchors = anchors;
      const Status status =
          RefreshArtifacts(dg.PackedView(), options, {}, &full_state, &full);
      if (!status.ok()) {
        std::printf("  !! full refresh failed: %s\n",
                    status.ToString().c_str());
      }
    });
    print(r);
    results.push_back(std::move(r));
  }
  return results;
}

// ---------------------------------------------------------------------------
// Durability: WAL append / state snapshot / crash recovery on the same
// serving-dense shape as the mutation table (n=8000, every node an anchor,
// radius-3 invalidation) -> the "durability" table. The gated comparison is
// replay: restarting from snapshot + WAL tail must beat the pre-durability
// alternative — retraining the serving state from scratch (an unprimed full
// RefreshArtifacts) — by >= 5x (tools/check_micro.py).
// ---------------------------------------------------------------------------

std::vector<MutationResult> MeasureDurability() {
  std::vector<MutationResult> results;
  const Graph g = BenchGraph(8000, 33);
  std::vector<int> anchors(g.num_nodes());
  std::iota(anchors.begin(), anchors.end(), 0);
  TpGrGadOptions options;
  options.seed = 29;
  options.sampler.path_mode = PathSearchMode::kUnweighted;
  options.sampler.pair_radius = 3;
  options.sampler.cycle_max_len = 3;
  options.sampler.max_paths_per_anchor = 4;
  options.sampler.max_cycles_per_anchor = 4;
  options.sampler.max_group_size = 16;
  options.sampler.max_groups = 128;
  options.serve_wal_sync_every = 16;
  options.ReseedStages();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grgad_micro_durability";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  // A deterministic absent edge to churn (same scheme as the mutation
  // table).
  Rng rng(3);
  int mu = -1, mv = -1;
  while (mu < 0) {
    const int a = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    const int b = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    if (a != b && !g.HasEdge(a, b)) {
      mu = std::min(a, b);
      mv = std::max(a, b);
    }
  }

  auto print = [](const MutationResult& r) {
    if (r.seed_ms > 0.0) {
      std::printf("  %-24s %-24s seed %8.3f ms   opt %8.3f ms   %.2fx\n",
                  r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                  r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9));
    } else {
      std::printf("  %-24s %-24s                  opt %8.3f ms\n",
                  r.name.c_str(), r.shape.c_str(), r.opt_ms);
    }
  };

  // wal_append: one checksummed record framed + written under the batched
  // fsync policy (every 16th append pays the sync).
  {
    auto wal = WriteAheadLog::Open((dir / "bench.log").string(),
                                   options.serve_wal_sync_every);
    if (!wal.ok()) {
      std::printf("  !! wal bench open failed: %s\n",
                  wal.status().ToString().c_str());
      return results;
    }
    GraphMutation m;
    m.kind = GraphMutation::Kind::kAddEdge;
    m.u = mu;
    m.v = mv;
    MutationResult r;
    r.name = "wal_append";
    r.shape = "sync_every=16";
    r.opt_ms = MedianMs([&] {
      const Status status = wal.value()->Append(WalRecord::Kind::kMutation, m);
      if (!status.ok()) {
        std::printf("  !! wal append failed: %s\n", status.ToString().c_str());
      }
    });
    print(r);
    results.push_back(std::move(r));
  }

  // Prime the serving-dense resident state once (shared by the snapshot and
  // replay measurements).
  RefreshState refresh_state;
  PipelineArtifacts artifacts;
  artifacts.seed = options.seed;
  artifacts.anchors = anchors;
  const Status primed =
      RefreshArtifacts(g, options, {}, &refresh_state, &artifacts);
  if (!primed.ok()) {
    std::printf("  !! durability bench priming failed: %s\n",
                primed.ToString().c_str());
    return results;
  }
  ServeStateSnapshot serve_state;
  serve_state.refresh_primed = refresh_state.primed;
  serve_state.refresh_per_anchor = refresh_state.per_anchor;

  // snapshot: one atomic SaveServeSnapshot of the full serving state
  // (packed CSR + artifacts + refresh cache), staged + fsynced + renamed.
  {
    const std::string state_dir = (dir / "snapshot_bench").string();
    MutationResult r;
    r.name = "snapshot";
    r.shape = "n=8000,anchors=8000";
    r.opt_ms = MedianMs([&] {
      const Status status =
          SaveServeSnapshot(state_dir, g, artifacts, serve_state, 0);
      if (!status.ok()) {
        std::printf("  !! snapshot bench failed: %s\n",
                    status.ToString().c_str());
      }
    });
    print(r);
    results.push_back(std::move(r));
  }

  // replay: the daemon's actual restart path — load the snapshot, construct
  // the daemon, replay a 17-record WAL tail (16 edge toggles + the refresh
  // that folds them into the artifacts) — vs the pre-durability restart, a
  // from-scratch rebuild of the serving state (unprimed full
  // RefreshArtifacts over all 8000 anchors).
  {
    const std::string state_dir = (dir / "replay_bench").string();
    const Status saved =
        SaveServeSnapshot(state_dir, g, artifacts, serve_state, 0);
    if (!saved.ok()) {
      std::printf("  !! replay bench staging failed: %s\n",
                  saved.ToString().c_str());
      return results;
    }
    {
      auto wal = WriteAheadLog::Open(state_dir + "/wal.log", 16);
      if (!wal.ok()) {
        std::printf("  !! replay bench wal failed: %s\n",
                    wal.status().ToString().c_str());
        return results;
      }
      GraphMutation m;
      m.u = mu;
      m.v = mv;
      for (int i = 0; i < 16; ++i) {
        m.kind = i % 2 == 0 ? GraphMutation::Kind::kAddEdge
                            : GraphMutation::Kind::kRemoveEdge;
        (void)wal.value()->Append(WalRecord::Kind::kMutation, m);
      }
      (void)wal.value()->Append(WalRecord::Kind::kRefresh);
      (void)wal.value()->Sync();
    }
    MutationResult r;
    r.name = "replay";
    r.shape = "n=8000,anchors=8000,records=17";
    r.opt_ms = MedianMs([&] {
      auto loaded = LoadServeSnapshot(state_dir);
      if (!loaded.ok()) {
        std::printf("  !! replay bench load failed: %s\n",
                    loaded.status().ToString().c_str());
        return;
      }
      ServeOptions serve_options;
      serve_options.pipeline = options;
      serve_options.state_dir = state_dir;
      ServeDaemon daemon(loaded.value().graph,
                         std::move(loaded.value().artifacts), serve_options);
      const Status recovered = daemon.EnableDurability(&loaded.value());
      if (!recovered.ok()) {
        std::printf("  !! replay bench recovery failed: %s\n",
                    recovered.ToString().c_str());
      }
      benchmark::DoNotOptimize(daemon.artifacts());
    });
    r.seed_ms = MedianMs([&] {
      RefreshState full_state;
      PipelineArtifacts full;
      full.seed = options.seed;
      full.anchors = anchors;
      const Status status =
          RefreshArtifacts(g, options, {}, &full_state, &full);
      if (!status.ok()) {
        std::printf("  !! full rebuild failed: %s\n",
                    status.ToString().c_str());
      }
    });
    print(r);
    results.push_back(std::move(r));
  }
  std::filesystem::remove_all(dir, ec);
  return results;
}

void WriteMicroJson() {
  // Epochs and candidates are measured FIRST, on a cold allocator: glibc's
  // trim/mmap thresholds ratchet up under the kernel benchmarks' large
  // blocks, after which per-call malloc/free stops hitting the OS, and the
  // seed sampler's per-anchor allocation cost is visible only while the
  // allocator is cold.
  std::printf("Training epochs (arena + fused kernels), GRGAD_THREADS=%d\n",
              ParallelismDegree());
  const std::vector<EpochResult> epochs = MeasureTrainingEpochs();
  std::printf("Candidate-stage comparison (frozen serial sampler/patterns "
              "vs workspace/view product path), GRGAD_THREADS=%d\n",
              ParallelismDegree());
  const std::vector<CandidateResult> candidates = CompareCandidateKernels();
  std::printf("Scoring comparison (frozen seed detectors vs GEMM/parallel "
              "product detectors), GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<ScoringResult> scoring = CompareScoringKernels();
  std::printf("Kernel comparison (seed serial reference vs optimized), "
              "GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<KernelResult> results = CompareKernels();
  std::printf("Serve round-trip (resident daemon, rescore over a local "
              "pipe), GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<ServeResult> serve = MeasureServeRoundTrip();
  std::printf("Mutation fast path (slack-CSR apply / ball invalidation / "
              "incremental refresh vs full recompute), GRGAD_THREADS=%d\n",
              ParallelismDegree());
  const std::vector<MutationResult> mutations = MeasureMutations();
  std::printf("Durability (WAL append / snapshot / crash recovery vs "
              "from-scratch rebuild), GRGAD_THREADS=%d\n",
              ParallelismDegree());
  const std::vector<MutationResult> durability = MeasureDurability();
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/micro.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("  !! could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"grgad-micro-v8\",\n");
  std::fprintf(f, "  \"threads\": %d,\n", ParallelismDegree());
  std::fprintf(f, "  \"candidates\": [\n");
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidateResult& r = candidates[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", "
                 "\"seed_ms\": %.6f, \"opt_ms\": %.6f, \"speedup\": %.3f",
                 r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                 r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9));
    if (r.steady_workspace_allocs >= 0) {
      std::fprintf(f,
                   ", \"workspace\": {\"steady_heap_allocs\": %lld}",
                   static_cast<long long>(r.steady_workspace_allocs));
    }
    std::fprintf(f, "}%s\n", i + 1 < candidates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", "
                 "\"seed_ms\": %.6f, \"opt_ms\": %.6f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                 r.seed_ms / r.opt_ms, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scoring\": [\n");
  for (size_t i = 0; i < scoring.size(); ++i) {
    const ScoringResult& r = scoring[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", "
                 "\"seed_ms\": %.6f, \"opt_ms\": %.6f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                 r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9),
                 i + 1 < scoring.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"epochs\": [\n");
  for (size_t i = 0; i < epochs.size(); ++i) {
    const EpochResult& r = epochs[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"shape\": \"%s\", \"opt_ms\": %.6f, "
        "\"arena\": {\"warmup_heap_allocs\": %llu, "
        "\"steady_fit_heap_allocs\": %llu, "
        "\"steady_reused_per_epoch\": %llu, "
        "\"steady_bytes_served_per_epoch\": %llu}}%s\n",
        r.name.c_str(), r.shape.c_str(), r.opt_ms,
        static_cast<unsigned long long>(r.warmup_heap_allocs),
        static_cast<unsigned long long>(r.steady_heap_allocs),
        static_cast<unsigned long long>(r.steady_reused),
        static_cast<unsigned long long>(r.steady_bytes_served),
        i + 1 < epochs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"serve\": [\n");
  for (size_t i = 0; i < serve.size(); ++i) {
    const ServeResult& r = serve[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"mean_ms\": %.6f, "
                 "\"min_ms\": %.6f, \"round_trips\": %d}%s\n",
                 r.name.c_str(), r.mean_ms, r.min_ms, r.round_trips,
                 i + 1 < serve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"mutations\": [\n");
  for (size_t i = 0; i < mutations.size(); ++i) {
    const MutationResult& r = mutations[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"shape\": \"%s\"",
                 r.name.c_str(), r.shape.c_str());
    if (r.seed_ms > 0.0) {
      std::fprintf(f, ", \"seed_ms\": %.6f", r.seed_ms);
    }
    std::fprintf(f, ", \"opt_ms\": %.6f", r.opt_ms);
    if (r.seed_ms > 0.0) {
      std::fprintf(f, ", \"speedup\": %.3f",
                   r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9));
    }
    if (r.fanout >= 0.0) std::fprintf(f, ", \"fanout\": %.2f", r.fanout);
    std::fprintf(f, "}%s\n", i + 1 < mutations.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"durability\": [\n");
  for (size_t i = 0; i < durability.size(); ++i) {
    const MutationResult& r = durability[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"shape\": \"%s\"",
                 r.name.c_str(), r.shape.c_str());
    if (r.seed_ms > 0.0) {
      std::fprintf(f, ", \"seed_ms\": %.6f", r.seed_ms);
    }
    std::fprintf(f, ", \"opt_ms\": %.6f", r.opt_ms);
    if (r.seed_ms > 0.0) {
      std::fprintf(f, ", \"speedup\": %.3f",
                   r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9));
    }
    std::fprintf(f, "}%s\n", i + 1 < durability.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  -> wrote %s\n", path);
}

}  // namespace
}  // namespace grgad

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* json_env = std::getenv("GRGAD_MICRO_JSON");
  if (json_env == nullptr || json_env[0] != '0') {
    grgad::WriteMicroJson();
  }
  const char* only_env = std::getenv("GRGAD_MICRO_JSON_ONLY");
  if (only_env != nullptr && only_env[0] == '1') return 0;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
