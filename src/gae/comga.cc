#include "src/gae/comga.h"

#include <cmath>

#include "src/graph/operators.h"
#include "src/nn/layers.h"
#include "src/nn/optim.h"
#include "src/tensor/arena.h"
#include "src/util/rng.h"

namespace grgad {

ComGa::ComGa(ComGaOptions options) : options_(options) {}

std::vector<double> ComGa::FitNodeScores(const Graph& g) const {
  GRGAD_CHECK(g.has_attributes());
  const int n = g.num_nodes();
  const int d = static_cast<int>(g.attr_dim());
  Rng rng(options_.seed ^ 0x636f6d67ULL);

  // Declared before any Var; see GcnGae::Fit.
  MatrixArena local_arena;
  ArenaScope arena_scope(&local_arena);

  const auto a_norm = NormalizedAdjacency(g);
  const Matrix b_proj =
      ModularityProjection(g, options_.modularity_dim, options_.seed ^ 0xb);

  // Community autoencoder over modularity features.
  const size_t md = static_cast<size_t>(options_.modularity_dim);
  Mlp comm_enc({md, static_cast<size_t>(options_.hidden_dim)}, &rng);
  Mlp comm_dec({static_cast<size_t>(options_.hidden_dim), md}, &rng);
  // GCN encoder with community fusion into the hidden layer.
  GcnLayer enc1(d, options_.hidden_dim, &rng);
  GcnLayer enc2(options_.hidden_dim, options_.embed_dim, &rng);
  Mlp attr_dec({static_cast<size_t>(options_.embed_dim),
                static_cast<size_t>(options_.hidden_dim),
                static_cast<size_t>(d)},
               &rng);

  std::vector<Var> params;
  for (const auto& layer_params :
       {comm_enc.Params(), comm_dec.Params(), enc1.Params(), enc2.Params(),
        attr_dec.Params()}) {
    params.insert(params.end(), layer_params.begin(), layer_params.end());
  }
  AdamOptions adam_options;
  adam_options.lr = options_.lr;
  adam_options.clip_grad_norm = 5.0;
  Adam adam(params, adam_options);

  // Structure pairs: adjacency entries + negatives (shared GAE recipe).
  const SparseMatrix adj = AdjacencyMatrix(g);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(g.num_edges()));
  g.ForEachEdge([&pairs](int u, int v) { pairs.emplace_back(u, v); });
  const size_t num_pos = pairs.size();
  size_t added = 0, guard = 0;
  const size_t num_neg =
      std::min(num_pos * options_.neg_per_pos,
               options_.max_pairs > num_pos ? options_.max_pairs - num_pos
                                            : size_t{0});
  while (added < num_neg && guard < num_neg * 30 + 100) {
    ++guard;
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (u >= v || adj.At(u, v) != 0.0) continue;
    pairs.emplace_back(u, v);
    ++added;
  }
  Matrix pair_targets(pairs.size(), 1);
  for (size_t p = 0; p < num_pos; ++p) pair_targets(p, 0) = 1.0;
  const auto shared_pairs =
      std::make_shared<const std::vector<std::pair<int, int>>>(
          std::move(pairs));

  const Var x(g.attributes(), /*requires_grad=*/false);
  const Var b(b_proj, /*requires_grad=*/false);
  Matrix final_pred, final_x_hat, final_b_hat;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    adam.ZeroGrad();
    // Community branch.
    Var h_comm = Relu(comm_enc.Forward(b));
    Var b_hat = comm_dec.Forward(h_comm);
    Var loss_comm = MseLoss(b_hat, b_proj);
    // Fused GCN encoder: hidden = ReLU(GCN1(x)) + community hidden.
    Var h = Relu(enc1.Forward(a_norm, x));
    Var h_fused = Add(h, Scale(h_comm, 0.5));
    Var z = enc2.Forward(a_norm, h_fused);
    Var pred = Sigmoid(PairInnerProduct(z, shared_pairs));
    Var loss_stru = MseLoss(pred, pair_targets);
    Var x_hat = attr_dec.Forward(z);
    Var loss_attr = MseLoss(x_hat, g.attributes());
    Var loss = Add(Add(Scale(loss_stru, options_.lambda),
                       Scale(loss_attr, 1.0 - options_.lambda)),
                   Scale(loss_comm, 0.5));
    loss.Backward();
    adam.Step();
    if (epoch + 1 == options_.epochs) {
      final_pred = pred.value();
      final_x_hat = x_hat.value();
      final_b_hat = b_hat.value();
    }
  }

  // Node scores: structure + attribute + community reconstruction errors.
  std::vector<double> stru(n, 0.0);
  std::vector<int> stru_count(n, 0);
  for (size_t p = 0; p < shared_pairs->size(); ++p) {
    const auto [i, j] = (*shared_pairs)[p];
    const double err = std::fabs(final_pred(p, 0) - pair_targets(p, 0));
    stru[i] += err;
    stru[j] += err;
    ++stru_count[i];
    ++stru_count[j];
  }
  for (int i = 0; i < n; ++i) {
    if (stru_count[i] > 0) stru[i] /= stru_count[i];
  }
  std::vector<double> attr(n, 0.0), comm(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double sa = 0.0;
    for (int j = 0; j < d; ++j) {
      const double diff = final_x_hat(i, j) - g.attributes()(i, j);
      sa += diff * diff;
    }
    attr[i] = std::sqrt(sa);
    double sc = 0.0;
    for (size_t j = 0; j < md; ++j) {
      const double diff = final_b_hat(i, j) - b_proj(i, j);
      sc += diff * diff;
    }
    comm[i] = std::sqrt(sc);
  }
  MinMaxNormalize(&stru);
  MinMaxNormalize(&attr);
  MinMaxNormalize(&comm);
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = options_.lambda * stru[i] +
                (1.0 - options_.lambda) * attr[i] +
                options_.community_weight * comm[i];
  }
  MinMaxNormalize(&scores);
  return scores;
}

}  // namespace grgad
