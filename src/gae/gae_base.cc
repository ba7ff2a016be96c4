#include "src/gae/gae_base.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/graph/graphsnn.h"
#include "src/graph/operators.h"
#include "src/nn/layers.h"
#include "src/nn/optim.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace grgad {

const char* ToString(ReconTarget target) {
  switch (target) {
    case ReconTarget::kAdjacency: return "A";
    case ReconTarget::kPower3: return "A^3";
    case ReconTarget::kPower5: return "A^5";
    case ReconTarget::kPower7: return "A^7";
    case ReconTarget::kGraphSnn: return "A~";
  }
  return "?";
}

bool ParseReconTarget(const std::string& name, ReconTarget* out) {
  for (ReconTarget t : {ReconTarget::kAdjacency, ReconTarget::kPower3,
                        ReconTarget::kPower5, ReconTarget::kPower7,
                        ReconTarget::kGraphSnn}) {
    if (name == ToString(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

void MinMaxNormalize(std::vector<double>* v) {
  if (v->empty()) return;
  const auto [lo_it, hi_it] = std::minmax_element(v->begin(), v->end());
  const double lo = *lo_it, hi = *hi_it;
  if (hi - lo < 1e-12) return;
  for (double& x : *v) x = (x - lo) / (hi - lo);
}

namespace {

SparseMatrix BuildTarget(const Graph& g, const GaeOptions& options) {
  switch (options.target) {
    case ReconTarget::kAdjacency:
      return AdjacencyMatrix(g);
    case ReconTarget::kPower3:
      return StandardizedPower(g, 3, options.power_row_cap);
    case ReconTarget::kPower5:
      return StandardizedPower(g, 5, options.power_row_cap);
    case ReconTarget::kPower7:
      return StandardizedPower(g, 7, options.power_row_cap);
    case ReconTarget::kGraphSnn: {
      GraphSnnOptions snn;
      snn.lambda = options.graphsnn_lambda;
      snn.max_normalize = true;
      return GraphSnnAdjacency(g, snn);
    }
  }
  return AdjacencyMatrix(g);
}

struct PairSet {
  std::vector<std::pair<int, int>> pairs;
  Matrix targets;  // p x 1
};

/// Positive pairs = stored entries of T (upper triangle); negatives sampled
/// uniformly among absent pairs. Deterministic given the rng.
PairSet SamplePairs(const SparseMatrix& t, const GaeOptions& options,
                    Rng* rng) {
  const int n = static_cast<int>(t.rows());
  PairSet out;
  std::vector<double> values;
  // Packed (u, v) keys of the stored upper-triangle nonzeros: the
  // negative-sampling rejection loop below probes membership once per
  // attempt, and on dense targets like A^7 the per-attempt t.At(u, v)
  // binary search made it O(attempts * log nnz(row)). One linear pass
  // builds an O(1) probe; only u < v keys are ever queried (the loop skips
  // u >= v draws), so lower-triangle/diagonal entries need not be stored.
  // Stored zeros are skipped to match At(u, v) != 0.0 exactly.
  std::unordered_set<uint64_t> present;
  present.reserve(t.nnz() / 2 + 1);
  const auto pack = [](int u, int v) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
           static_cast<uint32_t>(v);
  };
  for (int i = 0; i < n; ++i) {
    auto cols = t.RowCols(i);
    auto vals = t.RowValues(i);
    for (size_t p = 0; p < cols.size(); ++p) {
      if (cols[p] <= i || vals[p] == 0.0) continue;
      present.insert(pack(i, cols[p]));
      out.pairs.emplace_back(i, cols[p]);
      values.push_back(vals[p]);
    }
  }
  // Downsample positives if over budget.
  const size_t pos_budget =
      options.max_pairs / static_cast<size_t>(1 + options.neg_per_pos);
  if (out.pairs.size() > pos_budget) {
    const auto keep = rng->SampleWithoutReplacement(out.pairs.size(),
                                                    pos_budget);
    std::vector<std::pair<int, int>> kept_pairs;
    std::vector<double> kept_values;
    kept_pairs.reserve(keep.size());
    for (size_t idx : keep) {
      kept_pairs.push_back(out.pairs[idx]);
      kept_values.push_back(values[idx]);
    }
    out.pairs = std::move(kept_pairs);
    values = std::move(kept_values);
  }
  const size_t num_pos = out.pairs.size();
  const size_t num_neg = num_pos * static_cast<size_t>(options.neg_per_pos);
  size_t added = 0, guard = 0;
  while (added < num_neg && guard < num_neg * 30 + 100) {
    ++guard;
    const int u = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    if (u >= v) continue;
    if (present.count(pack(u, v)) != 0) continue;
    out.pairs.emplace_back(u, v);
    values.push_back(0.0);
    ++added;
  }
  out.targets = Matrix(out.pairs.size(), 1);
  for (size_t p = 0; p < out.pairs.size(); ++p) {
    out.targets(p, 0) = values[p];
  }
  return out;
}

}  // namespace

GcnGae::GcnGae(GaeOptions options) : options_(options) {}

GaeResult GcnGae::Fit(const Graph& g) const {
  GRGAD_CHECK(g.has_attributes());
  GRGAD_CHECK_GT(g.num_nodes(), 1);
  const int n = g.num_nodes();
  const int d = static_cast<int>(g.attr_dim());
  Rng rng(options_.seed ^ 0x67616521ULL);

  // Declared before any Var so every tape node (params included) is torn
  // down before the arena; all matrix traffic below recycles through it.
  MatrixArena local_arena;
  MatrixArena* arena =
      options_.arena != nullptr ? options_.arena : &local_arena;
  ArenaScope arena_scope(arena);
  if (options_.arena_byte_budget > 0) {
    arena->SetByteBudget(options_.arena_byte_budget);
  }
  arena->SetStopToken(options_.cancel);

  const auto a_norm = NormalizedAdjacency(g);
  const SparseMatrix target = BuildTarget(g, options_);
  PairSet pair_set = SamplePairs(target, options_, &rng);
  GRGAD_CHECK(!pair_set.pairs.empty());
  const auto shared_pairs =
      std::make_shared<const std::vector<std::pair<int, int>>>(
          std::move(pair_set.pairs));

  // Encoder: GCN(d -> hidden) ReLU -> GCN(hidden -> embed).
  GcnLayer enc1(d, options_.hidden_dim, &rng);
  GcnLayer enc2(options_.hidden_dim, options_.embed_dim, &rng);
  // Attribute decoder: Linear(embed -> hidden) ReLU -> Linear(hidden -> d).
  Mlp attr_dec({static_cast<size_t>(options_.embed_dim),
                static_cast<size_t>(options_.hidden_dim),
                static_cast<size_t>(d)},
               &rng);

  std::vector<Var> params;
  for (const auto& layer_params :
       {enc1.Params(), enc2.Params(), attr_dec.Params()}) {
    params.insert(params.end(), layer_params.begin(), layer_params.end());
  }
  AdamOptions adam_options;
  adam_options.lr = options_.lr;
  adam_options.weight_decay = options_.weight_decay;
  adam_options.clip_grad_norm = 5.0;
  Adam adam(params, adam_options);

  const Var x(g.attributes(), /*requires_grad=*/false);
  GaeResult result;
  result.loss_history.reserve(options_.epochs);
  Matrix final_z;
  Matrix final_x_hat;
  Matrix final_pred;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (options_.cancel.stop_requested()) return result;
    adam.ZeroGrad();
    Var h = Relu(enc1.Forward(a_norm, x));
    Var z = enc2.Forward(a_norm, h);
    Var pred = Sigmoid(PairInnerProduct(z, shared_pairs));
    Var loss_stru = MseLoss(pred, pair_set.targets);
    Var x_hat = attr_dec.Forward(z);
    Var loss_attr = MseLoss(x_hat, g.attributes());
    Var loss = Add(Scale(loss_stru, options_.lambda),
                   Scale(loss_attr, 1.0 - options_.lambda));
    loss.Backward();
    adam.Step();
    result.loss_history.push_back(loss.item());
    if (epoch + 1 == options_.epochs) {
      final_z = z.value();
      final_x_hat = x_hat.value();
      final_pred = pred.value();
    }
  }

  // Per-node reconstruction errors over the sampled pairs (Eqn. 1 / 3).
  std::vector<double> stru(n, 0.0);
  std::vector<int> stru_count(n, 0);
  for (size_t p = 0; p < shared_pairs->size(); ++p) {
    const auto [i, j] = (*shared_pairs)[p];
    const double err = std::fabs(final_pred(p, 0) - pair_set.targets(p, 0));
    stru[i] += err;
    stru[j] += err;
    ++stru_count[i];
    ++stru_count[j];
  }
  for (int i = 0; i < n; ++i) {
    if (stru_count[i] > 0) stru[i] /= stru_count[i];
  }
  std::vector<double> attr(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double s = 0.0;
    for (int j = 0; j < d; ++j) {
      const double diff = final_x_hat(i, j) - g.attributes()(i, j);
      s += diff * diff;
    }
    attr[i] = std::sqrt(s);
  }
  result.structure_errors = stru;
  result.attribute_errors = attr;
  MinMaxNormalize(&stru);
  MinMaxNormalize(&attr);
  result.node_errors.resize(n);
  for (int i = 0; i < n; ++i) {
    result.node_errors[i] =
        options_.lambda * stru[i] + (1.0 - options_.lambda) * attr[i];
  }
  result.embeddings = std::move(final_z);
  GRGAD_LOG(kDebug) << "GcnGae(" << ToString(options_.target)
                    << ") final loss=" << result.loss_history.back();
  return result;
}

}  // namespace grgad
