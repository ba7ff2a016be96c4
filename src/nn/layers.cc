#include "src/nn/layers.h"

#include <cmath>

#include "src/tensor/arena.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace grgad {

Var BiasReluFused(const Var& a, const Var& bias) {
  GRGAD_CHECK_EQ(bias.rows(), 1u);
  GRGAD_CHECK_EQ(a.cols(), bias.cols());
  const size_t rows = a.rows(), cols = a.cols();
  Matrix out = arena::Uninit(rows, cols);
  {
    // Row-chunked over the pool (disjoint rows, so bitwise identical to
    // the serial loop), matching the other elementwise kernels.
    const Matrix& av = a.value();
    const double* brow = bias.value().RowPtr(0);
    const size_t row_grain = kElementwiseParallelGrain / cols + 1;
    ParallelFor(rows, row_grain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double* src = av.RowPtr(i);
        double* dst = out.RowPtr(i);
        for (size_t j = 0; j < cols; ++j) {
          const double v = src[j] + brow[j];
          dst[j] = v > 0.0 ? v : 0.0;
        }
      }
    });
  }
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(bias);
  auto n = internal::NewInteriorNode(std::move(out), {a, bias});
  if (n->requires_grad) {
    internal::VarNode* self = n.get();
    n->backward_fn = [an, bn, self](const Matrix& g) {
      // Mask by output > 0 (== pre-activation > 0); the masked gradient is
      // shared by the input path and the bias column sums, matching the
      // unfused Relu-then-AddRowBroadcast backward order exactly.
      Matrix gm = arena::CopyOf(g);
      double* __restrict gd = gm.data();
      const double* __restrict od = self->value.data();
      const size_t size = gm.size();
      if (size < 2 * kElementwiseParallelGrain) {
        for (size_t i = 0; i < size; ++i) {
          if (od[i] <= 0.0) gd[i] = 0.0;
        }
      } else {
        ParallelFor(size, kElementwiseParallelGrain,
                    [&](size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        if (od[i] <= 0.0) gd[i] = 0.0;
                      }
                    });
      }
      if (bn->requires_grad) {
        // Serial ascending-row reduction, same order as the unfused
        // AddRowBroadcast backward (a 1 x cols output; not worth chunking).
        Matrix bg = arena::Zeroed(1, gm.cols());
        for (size_t i = 0; i < gm.rows(); ++i) {
          const double* row = gm.RowPtr(i);
          for (size_t j = 0; j < gm.cols(); ++j) bg(0, j) += row[j];
        }
        bn->AccumulateGrad(std::move(bg));
        arena::Recycle(std::move(bg));
      }
      if (an->requires_grad) an->AccumulateGrad(std::move(gm));
      arena::Recycle(std::move(gm));
    };
  }
  return AutogradOps::Wrap(std::move(n));
}

Matrix GlorotUniform(size_t in_dim, size_t out_dim, Rng* rng) {
  GRGAD_CHECK(rng != nullptr);
  const double limit = std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
  Matrix w(in_dim, out_dim);
  for (size_t i = 0; i < in_dim; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      w(i, j) = rng->Uniform(-limit, limit);
    }
  }
  return w;
}

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(GlorotUniform(in_dim, out_dim, rng), /*requires_grad=*/true) {
  if (use_bias) {
    bias_ = Var(Matrix(1, out_dim), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x) const {
  GRGAD_CHECK_EQ(x.cols(), in_dim_);
  Var out = MatMul(x, weight_);
  if (bias_.defined()) out = AddRowBroadcast(out, bias_);
  return out;
}

Var Linear::ForwardNoBias(const Var& x) const {
  GRGAD_CHECK_EQ(x.cols(), in_dim_);
  return MatMul(x, weight_);
}

std::vector<Var> Linear::Params() const {
  std::vector<Var> out = {weight_};
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

GcnLayer::GcnLayer(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias)
    : linear_(in_dim, out_dim, rng, use_bias) {}

Var GcnLayer::Forward(const std::shared_ptr<const SparseMatrix>& op,
                      const Var& x) const {
  GRGAD_CHECK(op != nullptr);
  GRGAD_CHECK_EQ(op->cols(), x.rows());
  // (op X) W == op (X W); the right association is cheaper because W is thin.
  return Spmm(op, linear_.Forward(x));
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng* rng, bool use_bias) {
  GRGAD_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng, use_bias);
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool interior = i + 1 < layers_.size();
    if (interior && layers_[i].has_bias()) {
      // Fused bias+ReLU: bitwise identical to the unfused pair below.
      h = BiasReluFused(layers_[i].ForwardNoBias(h), layers_[i].bias());
    } else {
      h = layers_[i].Forward(h);
      if (interior) h = Relu(h);
    }
  }
  return h;
}

std::vector<Var> Mlp::Params() const {
  std::vector<Var> out;
  for (const Linear& l : layers_) {
    for (const Var& p : l.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace grgad
