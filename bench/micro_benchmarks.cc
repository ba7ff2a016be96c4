// Seed-vs-optimized microbenchmarks for the substrates, written to
// bench_results/micro.json (schema in PERF.md, gated in CI by
// tools/check_micro.py). Run from a build directory:
//
//   GRGAD_THREADS=4 ./micro_benchmarks
//
// Eight tables, each timed as median wall-clock milliseconds per call:
// end-to-end training epochs (optimized path only, with arena accounting),
// the candidate stage (frozen serial sampler/pattern/augment paths vs the
// workspace/view product path), the scoring stage (frozen seed detectors vs
// the GEMM/parallel product detectors), the tensor kernels on the
// training-hot shapes, the resident daemon's round-trip latency, the
// mutation fast path (slack-CSR apply, ball invalidation, dirty-anchor
// incremental refresh vs full recompute), durability (WAL append, snapshot,
// crash recovery vs rebuild), and ungated optimized-only timings of the
// graph and t-SNE substrates nothing else covers.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
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
#include "src/util/json.h"
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

/// Keeps `value` (and the work that produced it) alive past the optimizer:
/// the empty asm may read anything through the escaped address.
template <typename T>
void DoNotOptimize(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// ---------------------------------------------------------------------------
// Shared row shape and timing for the seed-vs-opt tables.
// ---------------------------------------------------------------------------

/// One timed row of the kernels/candidates/scoring/mutations/durability/
/// substrates tables.
struct Row {
  std::string name;
  std::string shape;
  double seed_ms = 0.0;  ///< Seed/reference side; 0 = no comparison (no gate).
  double opt_ms = 0.0;   ///< Product path.
  double fanout = -1.0;  ///< Mean dirty anchors per mutation; -1 = n/a.
  /// Sampler only: TraversalWorkspace buffer growths across one steady-state
  /// Sample call (must be 0 — pooled workspaces fully warm after the timed
  /// runs). -1 for entries that do not use workspaces.
  int64_t steady_workspace_allocs = -1;
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

double Speedup(const Row& r) {
  return r.seed_ms / (r.opt_ms > 0.0 ? r.opt_ms : 1e-9);
}

void PrintRow(const Row& r) {
  if (r.seed_ms > 0.0) {
    std::printf("  %-24s %-24s seed %8.3f ms   opt %8.3f ms   %.2fx\n",
                r.name.c_str(), r.shape.c_str(), r.seed_ms, r.opt_ms,
                Speedup(r));
  } else {
    std::printf("  %-24s %-24s                  opt %8.3f ms\n",
                r.name.c_str(), r.shape.c_str(), r.opt_ms);
  }
}

/// Times the seed and the optimized side of one row and prints it.
template <typename SeedFn, typename OptFn>
Row Compare(std::string name, std::string shape, SeedFn&& seed_fn,
            OptFn&& opt_fn) {
  Row r;
  r.name = std::move(name);
  r.shape = std::move(shape);
  r.seed_ms = MedianMs(seed_fn);
  r.opt_ms = MedianMs(opt_fn);
  PrintRow(r);
  return r;
}

/// Times an optimized-only row and prints it.
template <typename OptFn>
Row TimeOnly(std::string name, std::string shape, OptFn&& opt_fn) {
  Row r;
  r.name = std::move(name);
  r.shape = std::move(shape);
  r.opt_ms = MedianMs(opt_fn);
  PrintRow(r);
  return r;
}

// ---------------------------------------------------------------------------
// Seed-vs-optimized kernel comparison -> the "kernels" table.
// ---------------------------------------------------------------------------

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

std::vector<Row> CompareKernels() {
  std::vector<Row> results;
  auto add = [&](auto&&... args) {
    results.push_back(Compare(std::forward<decltype(args)>(args)...));
  };

  // Dense kernels on the acceptance shape and the GCN tall-skinny shape.
  {
    Matrix a = RandomMatrix(512, 512, 21);
    Matrix b = RandomMatrix(512, 512, 22);
    add(
        "matmul", "512x512x512",
        [&] { DoNotOptimize(reference::MatMul(a, b)); },
        [&] { DoNotOptimize(MatMul(a, b)); });
    add(
        "matmul_transpose_b", "512x512x512",
        [&] { DoNotOptimize(reference::MatMulTransposeB(a, b)); },
        [&] { DoNotOptimize(MatMulTransposeB(a, b)); });
    add(
        "matmul_transpose_a", "512x512x512",
        [&] { DoNotOptimize(reference::MatMulTransposeA(a, b)); },
        [&] { DoNotOptimize(MatMulTransposeA(a, b)); });
    add(
        "transpose", "512x512",
        [&] { DoNotOptimize(reference::Transpose(a)); },
        [&] { DoNotOptimize(a.Transpose()); });
  }
  {
    Matrix a = RandomMatrix(4096, 256, 23);
    Matrix b = RandomMatrix(256, 64, 24);
    add(
        "matmul", "4096x256x64",
        [&] { DoNotOptimize(reference::MatMul(a, b)); },
        [&] { DoNotOptimize(MatMul(a, b)); });
  }

  // Sparse kernels on a 10k-node adjacency with 64-wide features (the GCN
  // message-passing shape) — forward and the autograd backward.
  {
    SparseMatrix s = BenchAdjacency(10000, 4, 25);
    Matrix x = RandomMatrix(10000, 64, 26);
    add(
        "spmm", "10000x10000(nnz~40k)x64",
        [&] { DoNotOptimize(reference::Spmm(s, x)); },
        [&] { DoNotOptimize(s.Spmm(x)); });
    add(
        "spmm_transpose_this", "10000x10000(nnz~40k)x64",
        [&] { DoNotOptimize(reference::SpmmTransposeThis(s, x)); },
        [&] { DoNotOptimize(s.SpmmTransposeThis(x)); });
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
        [&] { DoNotOptimize(reference::Map(x, relu)); },
        [&] {
          DoNotOptimize(
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

std::vector<Row> CompareCandidateKernels() {
  std::vector<Row> results;
  auto add = [&](auto&&... args) {
    results.push_back(Compare(std::forward<decltype(args)>(args)...));
  };

  // The acceptance shape: Alg. 1 over a transaction-scale random graph with
  // an anchor set dense enough that path/tree/cycle search all fire.
  {
    Graph g = BenchGraph(8000, 33);
    std::vector<int> anchors;
    for (int v = 0; v < g.num_nodes(); v += 125) anchors.push_back(v);
    GroupSampler sampler{GroupSamplerOptions{}};
    Row r = Compare(
        "sampler", "n=8000,anchors=64",
        [&] { DoNotOptimize(sampler.SampleReference(g, anchors)); },
        [&] { DoNotOptimize(sampler.Sample(g, anchors)); });
    // Steady-state workspace accounting: the timed opt runs above warmed
    // every pooled workspace; one more call must not grow anything.
    const uint64_t before = TraversalWorkspace::TotalHeapAllocs();
    DoNotOptimize(sampler.Sample(g, anchors));
    r.steady_workspace_allocs =
        static_cast<int64_t>(TraversalWorkspace::TotalHeapAllocs() - before);
    std::printf("  %-24s steady workspace heap allocs: %lld\n", "",
                static_cast<long long>(r.steady_workspace_allocs));
    results.push_back(std::move(r));
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
          DoNotOptimize(SearchPatterns(sub));
        },
        [&] {
          view.Reset(g, group);
          DoNotOptimize(SearchPatterns(view));
        });
    const Graph sub = g.InducedSubgraph(group);
    const FoundPatterns patterns = SearchPatterns(sub);
    add(
        "augment", "group=24,PPA+PBA",
        [&] {
          Rng rng(5);
          const Graph seed_sub = g.InducedSubgraph(group);
          DoNotOptimize(
              Augment(seed_sub, AugmentationKind::kPpa, patterns, &rng));
          DoNotOptimize(
              Augment(seed_sub, AugmentationKind::kPba, patterns, &rng));
        },
        [&] {
          Rng rng(5);
          view.Reset(g, group);
          DoNotOptimize(
              Augment(view, AugmentationKind::kPpa, patterns, &rng));
          DoNotOptimize(
              Augment(view, AugmentationKind::kPba, patterns, &rng));
        });
  }
  return results;
}

// ---------------------------------------------------------------------------
// Scoring-stage comparison (frozen seed detectors vs the blocked/parallel
// product detectors) -> the "scoring" table.
// ---------------------------------------------------------------------------

std::vector<Row> CompareScoringKernels() {
  std::vector<Row> results;
  auto add = [&](auto&&... args) {
    results.push_back(Compare(std::forward<decltype(args)>(args)...));
  };

  // The acceptance shape: group embeddings at serving scale (n groups x
  // 64-d TPGCL embeddings).
  Matrix x = RandomMatrix(2048, 64, 41);
  add(
      "pairwise", "2048x64",
      [&] { DoNotOptimize(reference::PairwiseDistances(x)); },
      [&] { DoNotOptimize(PairwiseDistances(x)); });
  add(
      "knn", "2048x64,k=5",
      [&] { DoNotOptimize(reference::KnnFitScore(x, 5)); },
      [&] { DoNotOptimize(KnnDetector(5).FitScore(x)); });
  add(
      "lof", "2048x64,k=10",
      [&] { DoNotOptimize(reference::LofFitScore(x, 10)); },
      [&] { DoNotOptimize(Lof(10).FitScore(x)); });
  add(
      "ecod", "2048x64",
      [&] { DoNotOptimize(reference::EcodFitScore(x)); },
      [&] { DoNotOptimize(Ecod().FitScore(x)); });
  {
    IsolationForestOptions options;
    options.num_trees = 100;
    options.seed = 7;
    add(
        "iforest", "2048x64,trees=100",
        [&] {
          DoNotOptimize(
              reference::IsolationForestFitScore(x, options));
        },
        [&] {
          DoNotOptimize(IsolationForest(options).FitScore(x));
        });
  }
  {
    Graph g = BenchGraph(5000, 9);
    add(
        "graphsnn", "n=5000",
        [&] {
          DoNotOptimize(reference::GraphSnnEdgeWeights(g, 1.0));
        },
        [&] { DoNotOptimize(GraphSnnEdgeWeights(g, 1.0)); });
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
            DoNotOptimize(
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
            DoNotOptimize(GcnGae(options).Fit(g));
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

/// The serving-dense refresh configuration shared by the mutation and
/// durability tables: every node is an anchor (per-node anomaly coverage,
/// the dense end of what a daemon hosts), candidate search is radius-3
/// local, and the scored group set is capped. This is the regime the
/// dirty-anchor machinery exists for — a full recompute resamples all 8000
/// anchors while one edge flip dirties only the ~190 anchors whose radius-3
/// ball the edge touches.
TpGrGadOptions ServingDenseOptions() {
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
  return options;
}

/// A deterministic absent edge (mu < mv) to churn throughout.
std::pair<int, int> AbsentEdge(const Graph& g) {
  Rng rng(3);
  for (;;) {
    const int a = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    const int b = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    if (a != b && !g.HasEdge(a, b)) return {std::min(a, b), std::max(a, b)};
  }
}

std::vector<Row> MeasureMutations() {
  std::vector<Row> results;
  const Graph g = BenchGraph(8000, 33);
  std::vector<int> anchors(g.num_nodes());
  std::iota(anchors.begin(), anchors.end(), 0);
  const TpGrGadOptions options = ServingDenseOptions();
  const int radius = InvalidationRadius(options.sampler);
  const std::pair<int, int> edge = AbsentEdge(g);
  const int mu = edge.first, mv = edge.second;

  // apply_edge: one add+remove round trip on the slack CSR vs the pre-PR
  // equivalent, a from-scratch GraphBuilder rebuild of the mutated graph.
  {
    DynamicGraph dg(g);
    Row r;
    r.name = "apply_edge";
    r.shape = "n=8000";
    r.seed_ms = MedianMs([&] {
      GraphBuilder b(g.num_nodes());
      g.ForEachEdge([&b](int u, int v) { b.AddEdge(u, v); });
      b.AddEdge(mu, mv);
      DoNotOptimize(b.Build(g.attributes()));
    });
    r.opt_ms = MedianMs([&] {
      dg.AddEdge(mu, mv);
      dg.RemoveEdge(mu, mv);
    });
    PrintRow(r);
    results.push_back(std::move(r));
  }

  // invalidate: one radius-R ball mark from the mutated edge.
  {
    DynamicGraph dg(g);
    dg.AddEdge(mu, mv);
    AnchorDirtyTracker tracker;
    tracker.Reset(anchors, radius, g.num_nodes());
    Row r;
    r.name = "invalidate";
    r.shape = "n=8000,anchors=8000,r=3";
    int fanout = 0;
    r.opt_ms = MedianMs([&] {
      fanout = tracker.MarkFromEdge(dg, mu, mv);
      DoNotOptimize(fanout);
    });
    r.fanout = static_cast<double>(fanout);
    PrintRow(r);
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

    Row r;
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
    PrintRow(r);
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

std::vector<Row> MeasureDurability() {
  std::vector<Row> results;
  const Graph g = BenchGraph(8000, 33);
  std::vector<int> anchors(g.num_nodes());
  std::iota(anchors.begin(), anchors.end(), 0);
  TpGrGadOptions options = ServingDenseOptions();
  options.serve_wal_sync_every = 16;
  const std::pair<int, int> edge = AbsentEdge(g);
  const int mu = edge.first, mv = edge.second;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grgad_micro_durability";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

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
    Row r;
    r.name = "wal_append";
    r.shape = "sync_every=16";
    r.opt_ms = MedianMs([&] {
      const Status status = wal.value()->Append(WalRecord::Kind::kMutation, m);
      if (!status.ok()) {
        std::printf("  !! wal append failed: %s\n", status.ToString().c_str());
      }
    });
    PrintRow(r);
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
    Row r;
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
    PrintRow(r);
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
    Row r;
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
      DoNotOptimize(daemon.artifacts());
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
    PrintRow(r);
    results.push_back(std::move(r));
  }
  std::filesystem::remove_all(dir, ec);
  return results;
}

// ---------------------------------------------------------------------------
// Graph and t-SNE substrates no other table covers: optimized-only timings,
// reported but not gated -> the "substrates" table.
// ---------------------------------------------------------------------------

std::vector<Row> MeasureSubstrates() {
  std::vector<Row> results;
  {
    const Graph g = BenchGraph(10000, 7);
    results.push_back(TimeOnly("bfs_distances", "n=10000",
                               [&] { DoNotOptimize(BfsDistances(g, 0)); }));
  }
  {
    const Graph g = BenchGraph(2000, 8);
    results.push_back(
        TimeOnly("cycles_through", "n=2000,max_len=8,max_cycles=32",
                 [&] { DoNotOptimize(CyclesThrough(g, 0, 8, 32)); }));
  }
  {
    const Graph g = BenchGraph(5000, 9);
    results.push_back(TimeOnly("graphsnn_adjacency", "n=5000",
                               [&] { DoNotOptimize(GraphSnnAdjacency(g)); }));
  }
  {
    const Graph g = BenchGraph(2000, 10);
    results.push_back(
        TimeOnly("standardized_power", "n=2000,k=5",
                 [&] { DoNotOptimize(StandardizedPower(g, 5)); }));
  }
  {
    const Matrix x = RandomMatrix(128, 32, 14);
    TsneOptions options;
    options.iterations = 20;
    results.push_back(TimeOnly("tsne", "128x32,iterations=20",
                               [&] { DoNotOptimize(Tsne(x, options)); }));
  }
  return results;
}

void WriteRows(JsonWriter* w, const char* table, const std::vector<Row>& rows) {
  w->Key(table).BeginArray();
  for (const Row& r : rows) {
    w->BeginObject().Key("name").String(r.name).Key("shape").String(r.shape);
    if (r.seed_ms > 0.0) w->Key("seed_ms").Double(r.seed_ms);
    w->Key("opt_ms").Double(r.opt_ms);
    if (r.seed_ms > 0.0) w->Key("speedup").Double(Speedup(r));
    if (r.fanout >= 0.0) w->Key("fanout").Double(r.fanout);
    if (r.steady_workspace_allocs >= 0) {
      w->Key("workspace").BeginObject()
          .Key("steady_heap_allocs").Int(r.steady_workspace_allocs)
          .EndObject();
    }
    w->EndObject();
  }
  w->EndArray();
}

bool WriteMicroJson() {
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
  const std::vector<Row> candidates = CompareCandidateKernels();
  std::printf("Scoring comparison (frozen seed detectors vs GEMM/parallel "
              "product detectors), GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<Row> scoring = CompareScoringKernels();
  std::printf("Kernel comparison (seed serial reference vs optimized), "
              "GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<Row> kernels = CompareKernels();
  std::printf("Serve round-trip (resident daemon, rescore over a local "
              "pipe), GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<ServeResult> serve = MeasureServeRoundTrip();
  std::printf("Mutation fast path (slack-CSR apply / ball invalidation / "
              "incremental refresh vs full recompute), GRGAD_THREADS=%d\n",
              ParallelismDegree());
  const std::vector<Row> mutations = MeasureMutations();
  std::printf("Durability (WAL append / snapshot / crash recovery vs "
              "from-scratch rebuild), GRGAD_THREADS=%d\n",
              ParallelismDegree());
  const std::vector<Row> durability = MeasureDurability();
  std::printf("Substrates (graph traversal / operators / t-SNE, optimized "
              "only), GRGAD_THREADS=%d\n", ParallelismDegree());
  const std::vector<Row> substrates = MeasureSubstrates();

  JsonWriter w;
  w.BeginObject()
      .Key("schema").String("grgad-micro-v8")
      .Key("threads").Int(ParallelismDegree());
  WriteRows(&w, "candidates", candidates);
  WriteRows(&w, "kernels", kernels);
  WriteRows(&w, "scoring", scoring);
  w.Key("epochs").BeginArray();
  for (const EpochResult& r : epochs) {
    w.BeginObject()
        .Key("name").String(r.name)
        .Key("shape").String(r.shape)
        .Key("opt_ms").Double(r.opt_ms)
        .Key("arena").BeginObject()
        .Key("warmup_heap_allocs").Uint(r.warmup_heap_allocs)
        .Key("steady_fit_heap_allocs").Uint(r.steady_heap_allocs)
        .Key("steady_reused_per_epoch").Uint(r.steady_reused)
        .Key("steady_bytes_served_per_epoch").Uint(r.steady_bytes_served)
        .EndObject()
        .EndObject();
  }
  w.EndArray();
  w.Key("serve").BeginArray();
  for (const ServeResult& r : serve) {
    w.BeginObject()
        .Key("name").String(r.name)
        .Key("mean_ms").Double(r.mean_ms)
        .Key("min_ms").Double(r.min_ms)
        .Key("round_trips").Int(r.round_trips)
        .EndObject();
  }
  w.EndArray();
  WriteRows(&w, "mutations", mutations);
  WriteRows(&w, "durability", durability);
  WriteRows(&w, "substrates", substrates);
  w.EndObject();

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/micro.json";
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << "\n";
  if (!out.flush()) {
    std::printf("  !! could not write %s\n", path);
    return false;
  }
  std::printf("  -> wrote %s\n", path);
  return true;
}

}  // namespace
}  // namespace grgad

int main() { return grgad::WriteMicroJson() ? 0 : 1; }
