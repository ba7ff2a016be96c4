#include "src/nn/optim.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace grgad {

Adam::Adam(std::vector<Var> params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    GRGAD_CHECK(p.defined() && p.requires_grad());
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

void Adam::Step() {
  ++t_;
  // Optional global-norm clipping across all parameter gradients. Kept in
  // the seed's exact form (per-parameter FrobeniusNorm, then re-squared)
  // so the clip scale is bitwise reproducible.
  double scale = 1.0;
  if (options_.clip_grad_norm > 0.0) {
    double total_sq = 0.0;
    for (const Var& p : params_) {
      if (p.grad().empty()) continue;
      const double n = p.grad().FrobeniusNorm();
      total_sq += n * n;
    }
    const double total = std::sqrt(total_sq);
    if (total > options_.clip_grad_norm) {
      scale = options_.clip_grad_norm / total;
    }
  }
  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  const double beta1 = options_.beta1;
  const double beta2 = options_.beta2;
  const double lr = options_.lr;
  const double eps = options_.eps;
  const double weight_decay = options_.weight_decay;
  for (size_t k = 0; k < params_.size(); ++k) {
    Var& p = params_[k];
    if (p.grad().empty()) continue;
    // Single fused pass: clip scale, moment updates, bias correction, and
    // the (optionally weight-decayed) parameter update per element, chunked
    // over the pool. Chunking splits only the flat index range and every
    // element's arithmetic is independent, so the result is bitwise
    // identical to a serial loop at any GRGAD_THREADS.
    double* __restrict value = p.mutable_value().data();
    const double* __restrict g = p.grad().data();
    double* __restrict m = m_[k].data();
    double* __restrict v = v_[k].data();
    const size_t size = p.mutable_value().size();
    ParallelFor(size, kElementwiseParallelGrain, [&](size_t begin,
                                                     size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double gi = g[i] * scale;
        m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
        v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
        const double m_hat = m[i] / bc1;
        const double v_hat = v[i] / bc2;
        double update = lr * m_hat / (std::sqrt(v_hat) + eps);
        if (weight_decay > 0.0) {
          update += lr * weight_decay * value[i];
        }
        value[i] -= update;
      }
    });
  }
}

void Adam::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Var> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  for (const Var& p : params_) {
    GRGAD_CHECK(p.defined() && p.requires_grad());
  }
}

void Sgd::Step() {
  for (Var& p : params_) {
    if (p.grad().empty()) continue;
    double* __restrict value = p.mutable_value().data();
    const double* __restrict g = p.grad().data();
    const size_t size = p.mutable_value().size();
    const double lr = lr_;
    ParallelFor(size, kElementwiseParallelGrain, [&](size_t begin,
                                                     size_t end) {
      for (size_t i = begin; i < end; ++i) value[i] -= lr * g[i];
    });
  }
}

void Sgd::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

}  // namespace grgad
