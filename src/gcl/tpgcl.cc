#include "src/gcl/tpgcl.h"

#include <cmath>
#include <cstring>

#include "src/graph/operators.h"
#include "src/graph/subgraph_view.h"
#include "src/nn/layers.h"
#include "src/nn/optim.h"
#include "src/gcl/mine.h"
#include "src/util/logging.h"

namespace grgad {

GraphBatch BuildGraphBatch(const std::vector<Graph>& graphs) {
  GRGAD_CHECK(!graphs.empty());
  const size_t d = graphs[0].attr_dim();
  size_t total = 0;
  // Normalize each member adjacency up front: the nnz totals size the
  // triplet buffers exactly (no reallocation), and the emission order below
  // is (row, col)-sorted — block-diagonal blocks in ascending row order,
  // CSR rows already sorted within — so FromTriplets takes its no-sort
  // fast path.
  std::vector<std::shared_ptr<const SparseMatrix>> a_norms;
  a_norms.reserve(graphs.size());
  size_t total_nnz = 0;
  for (const Graph& g : graphs) {
    GRGAD_CHECK_EQ(g.attr_dim(), d);
    GRGAD_CHECK_GT(g.num_nodes(), 0);
    total += static_cast<size_t>(g.num_nodes());
    a_norms.push_back(NormalizedAdjacency(g));
    total_nnz += a_norms.back()->nnz();
  }
  GraphBatch batch;
  batch.x = Matrix(total, d);
  std::vector<Triplet> op_triplets;
  op_triplets.reserve(total_nnz);
  std::vector<Triplet> pool_triplets;
  pool_triplets.reserve(total);
  size_t offset = 0;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const SparseMatrix& a_norm = *a_norms[gi];
    for (size_t i = 0; i < a_norm.rows(); ++i) {
      auto cols = a_norm.RowCols(i);
      auto vals = a_norm.RowValues(i);
      for (size_t p = 0; p < cols.size(); ++p) {
        op_triplets.push_back({static_cast<int>(offset + i),
                               static_cast<int>(offset + cols[p]), vals[p]});
      }
    }
    const double inv = 1.0 / static_cast<double>(g.num_nodes());
    for (int v = 0; v < g.num_nodes(); ++v) {
      pool_triplets.push_back(
          {static_cast<int>(gi), static_cast<int>(offset + v), inv});
      std::memcpy(batch.x.RowPtr(offset + v), g.attributes().RowPtr(v),
                  d * sizeof(double));
    }
    offset += static_cast<size_t>(g.num_nodes());
  }
  batch.op = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(total, total, std::move(op_triplets)));
  batch.pool = std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      graphs.size(), total, std::move(pool_triplets)));
  return batch;
}

GraphBatch BuildGraphBatchFromGroups(
    const Graph& host, const std::vector<std::vector<int>>& groups) {
  GRGAD_CHECK(!groups.empty());
  GRGAD_CHECK_GT(host.num_nodes(), 0);
  const size_t d = host.attr_dim();
  SubgraphView view;
  // Sizing pass: exact node and nnz totals per group (the view dedups node
  // lists the way InducedSubgraph would).
  std::vector<int> group_nodes(groups.size());
  size_t total = 0;
  size_t total_nnz = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    GRGAD_CHECK(!groups[gi].empty());
    view.Reset(host, groups[gi]);
    group_nodes[gi] = view.num_nodes();
    total += static_cast<size_t>(view.num_nodes());
    // Normalized adjacency nnz: both edge directions plus self loops.
    total_nnz += 2 * static_cast<size_t>(view.num_edges()) +
                 static_cast<size_t>(view.num_nodes());
  }
  GraphBatch batch;
  batch.x = Matrix(total, d);
  std::vector<Triplet> op_triplets;
  op_triplets.reserve(total_nnz);
  std::vector<Triplet> pool_triplets;
  pool_triplets.reserve(total);
  std::vector<double> inv_sqrt;
  size_t offset = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    view.Reset(host, groups[gi]);
    const int n = view.num_nodes();
    GRGAD_CHECK_EQ(n, group_nodes[gi]);
    // Symmetric normalization with self loops, exactly as
    // SymmetricNormalize(AdjacencyMatrix(g), true) computes it: the
    // self-looped degree is a small exact integer in double, and each entry
    // is 1.0 * inv_sqrt[i] * inv_sqrt[j].
    inv_sqrt.resize(n);
    for (int i = 0; i < n; ++i) {
      inv_sqrt[i] = 1.0 / std::sqrt(static_cast<double>(view.Degree(i) + 1));
    }
    for (int i = 0; i < n; ++i) {
      // Row i's columns are the sorted union of {i} and its neighbors —
      // emit the merge in ascending column order so the final FromTriplets
      // takes its no-sort fast path (and matches the seed's per-group
      // normalized CSR rows bit for bit).
      bool self_emitted = false;
      for (int w : view.Neighbors(i)) {
        if (!self_emitted && i < w) {
          op_triplets.push_back({static_cast<int>(offset + i),
                                 static_cast<int>(offset + i),
                                 1.0 * inv_sqrt[i] * inv_sqrt[i]});
          self_emitted = true;
        }
        op_triplets.push_back({static_cast<int>(offset + i),
                               static_cast<int>(offset + w),
                               1.0 * inv_sqrt[i] * inv_sqrt[w]});
      }
      if (!self_emitted) {
        op_triplets.push_back({static_cast<int>(offset + i),
                               static_cast<int>(offset + i),
                               1.0 * inv_sqrt[i] * inv_sqrt[i]});
      }
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (int v = 0; v < n; ++v) {
      pool_triplets.push_back(
          {static_cast<int>(gi), static_cast<int>(offset + v), inv});
      if (d > 0) {
        std::memcpy(batch.x.RowPtr(offset + v), view.AttrRow(v),
                    d * sizeof(double));
      }
    }
    offset += static_cast<size_t>(n);
  }
  batch.op = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(total, total, std::move(op_triplets)));
  batch.pool = std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      groups.size(), total, std::move(pool_triplets)));
  return batch;
}

Tpgcl::Tpgcl(TpgclOptions options) : options_(options) {}

TpgclResult Tpgcl::FitEmbed(
    const Graph& host, const std::vector<std::vector<int>>& groups) const {
  GRGAD_CHECK(host.has_attributes());
  GRGAD_CHECK_GE(groups.size(), 2u);
  const int m = static_cast<int>(groups.size());
  const int d = static_cast<int>(host.attr_dim());
  Rng rng(options_.seed ^ 0x7470676cULL);

  // Declared before any Var; see GcnGae::Fit.
  MatrixArena local_arena;
  MatrixArena* arena =
      options_.arena != nullptr ? options_.arena : &local_arena;
  ArenaScope arena_scope(arena);
  if (options_.arena_byte_budget > 0) {
    arena->SetByteBudget(options_.arena_byte_budget);
  }
  arena->SetStopToken(options_.cancel);

  // --- Views: pattern search + one PPA and one PBA view per group. A
  // single retargeted SubgraphView replaces per-group InducedSubgraph
  // copies (identical patterns, identical rng stream, bitwise identical
  // batches — SubgraphViewTest.* and BatchFromGroupsMatchesInducedBatch pin
  // this). The augmented views are real graphs: PPA/PBA add and remove
  // nodes. ---
  std::vector<Graph> positives, negatives;
  positives.reserve(m);
  negatives.reserve(m);
  SubgraphView view;
  for (const auto& group : groups) {
    view.Reset(host, group);
    const FoundPatterns patterns =
        SearchPatterns(view, options_.pattern_options);
    positives.push_back(Augment(view, options_.positive_aug, patterns, &rng));
    negatives.push_back(Augment(view, options_.negative_aug, patterns, &rng));
  }
  const GraphBatch orig_batch = BuildGraphBatchFromGroups(host, groups);
  const GraphBatch pos_batch = BuildGraphBatch(positives);
  const GraphBatch neg_batch = BuildGraphBatch(negatives);

  // --- Shared encoder f_theta and statistic Φ. ---
  GcnLayer enc1(d, options_.hidden_dim, &rng);
  GcnLayer enc2(options_.hidden_dim, options_.embed_dim, &rng);
  MineEstimator phi(options_.embed_dim, options_.mine_hidden, &rng);
  std::vector<Var> params;
  for (const auto& layer_params :
       {enc1.Params(), enc2.Params(), phi.Params()}) {
    params.insert(params.end(), layer_params.begin(), layer_params.end());
  }
  AdamOptions adam_options;
  adam_options.lr = options_.lr;
  adam_options.clip_grad_norm = 5.0;
  Adam adam(params, adam_options);

  auto encode = [&](const GraphBatch& batch) {
    Var x(batch.x, /*requires_grad=*/false);
    Var h = Relu(enc1.Forward(batch.op, x));
    Var node_embed = enc2.Forward(batch.op, h);
    return Spmm(batch.pool, node_embed);  // m x embed readout.
  };

  TpgclResult result;
  result.loss_history.reserve(options_.epochs);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (options_.cancel.stop_requested()) return result;
    adam.ZeroGrad();
    Var z_pos = encode(pos_batch);
    Var z_neg = encode(neg_batch);
    Var loss = MineLoss(phi, z_pos, z_neg, options_.neg_per_sample, &rng);
    loss.Backward();
    adam.Step();
    result.loss_history.push_back(loss.item());
  }
  // Final embeddings of the *original* candidate groups.
  result.embeddings = encode(orig_batch).value();
  GRGAD_LOG(kDebug) << "TPGCL trained on " << m << " groups, final loss="
                    << (result.loss_history.empty()
                            ? 0.0
                            : result.loss_history.back());
  return result;
}

}  // namespace grgad
