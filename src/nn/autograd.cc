#include "src/nn/autograd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "src/tensor/arena.h"

// Allocation discipline: every op output, every gradient, and every backward
// temporary goes through the Acquire*/ReleaseScratch helpers below, which
// draw from the thread's current MatrixArena when one is installed (training
// loops install one per run) and fall back to plain heap matrices otherwise.
// Node values and gradients return to the arena on tape teardown
// (~VarNode); scratch returns immediately after its accumulate. Every
// arena-backed computation runs the same kernels in the same accumulation
// order as the allocating path, so results are bitwise identical either way.

namespace grgad {

namespace internal {

namespace {
std::atomic<uint64_t> g_next_node_id{1};
}  // namespace

VarNode::~VarNode() {
  if (arena == nullptr) return;
  arena->Release(std::move(value));
  arena->Release(std::move(grad));
}

void VarNode::AccumulateGrad(const Matrix& g) {
  GRGAD_CHECK(g.rows() == value.rows() && g.cols() == value.cols());
  if (grad.empty()) {
    grad = arena != nullptr ? arena->AcquireCopy(g) : g;
    grad_zero = false;
  } else if (grad_zero) {
    grad.CopyFrom(g);
    grad_zero = false;
  } else {
    grad.AddInPlace(g);
  }
}

void VarNode::AccumulateGrad(Matrix&& g) {
  GRGAD_CHECK(g.rows() == value.rows() && g.cols() == value.cols());
  if (grad.empty()) {
    grad = std::move(g);  // Adopt the scratch buffer; identical bytes.
    grad_zero = false;
  } else {
    AccumulateGrad(static_cast<const Matrix&>(g));
  }
}

}  // namespace internal

using internal::VarNode;

namespace {

std::shared_ptr<VarNode> NewNode(Matrix value, bool requires_grad) {
  auto n = std::make_shared<VarNode>();
  n->value = std::move(value);
  n->requires_grad = requires_grad;
  n->id = internal::g_next_node_id.fetch_add(1);
  n->arena = CurrentArena();
  return n;
}

bool AnyRequiresGrad(const std::vector<Var>& parents) {
  for (const Var& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

/// Creates an interior node with the given parents and backward closure.
/// The closure receives the output gradient and must accumulate into the
/// parent nodes it captured (checking requires_grad itself).
Var MakeOpNode(Matrix value, const std::vector<Var>& parents,
               std::function<void(const Matrix&)> backward_fn) {
  auto n = internal::NewInteriorNode(std::move(value), parents);
  if (n->requires_grad) n->backward_fn = std::move(backward_fn);
  return AutogradOps::Wrap(std::move(n));
}

// Arena-aware allocation helpers (see the file comment); short local names
// for the shared arena:: helpers.

Matrix AcquireZeroed(size_t r, size_t c) { return arena::Zeroed(r, c); }

/// Caller must overwrite every element before reading any.
Matrix AcquireUninit(size_t r, size_t c) { return arena::Uninit(r, c); }

Matrix AcquireCopyOf(const Matrix& src) { return arena::CopyOf(src); }

/// Returns a finished scratch buffer to the current arena (frees it when
/// none is installed).
void ReleaseScratch(Matrix&& m) { arena::Recycle(std::move(m)); }

}  // namespace

namespace internal {

std::shared_ptr<VarNode> NewInteriorNode(Matrix value,
                                         const std::vector<Var>& parents) {
  auto n = NewNode(std::move(value), AnyRequiresGrad(parents));
  if (n->requires_grad) {
    n->parents.reserve(parents.size());
    for (const Var& p : parents) n->parents.push_back(AutogradOps::node(p));
  }
  return n;
}

}  // namespace internal

Var::Var(Matrix value, bool requires_grad)
    : node_(NewNode(std::move(value), requires_grad)) {}

const Matrix& Var::value() const {
  GRGAD_CHECK(defined());
  return node_->value;
}

Matrix& Var::mutable_value() {
  GRGAD_CHECK(defined());
  return node_->value;
}

const Matrix& Var::grad() const {
  GRGAD_CHECK(defined());
  static const Matrix kEmpty;
  return node_->has_grad() ? node_->grad : kEmpty;
}

bool Var::requires_grad() const { return defined() && node_->requires_grad; }

void Var::ZeroGrad() {
  GRGAD_CHECK(defined());
  if (!node_->grad.empty()) {
    // Keep the buffer; the next accumulation overwrites it in place. No
    // zero fill is needed — grad() already reports empty via grad_zero.
    node_->grad_zero = true;
  } else {
    node_->grad = Matrix();
    node_->grad_zero = false;
  }
}

double Var::item() const {
  GRGAD_CHECK(defined());
  GRGAD_CHECK(node_->value.rows() == 1 && node_->value.cols() == 1);
  return node_->value(0, 0);
}

void Var::Backward() const {
  GRGAD_CHECK(defined());
  GRGAD_CHECK(node_->value.rows() == 1 && node_->value.cols() == 1);
  // Collect all reachable ancestors (iterative DFS to bound stack depth).
  std::vector<VarNode*> order;
  std::unordered_set<VarNode*> seen;
  std::vector<VarNode*> stack = {node_.get()};
  seen.insert(node_.get());
  while (!stack.empty()) {
    VarNode* n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (const auto& p : n->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  // Reverse creation order is a valid topological order: an op node is
  // always created after all of its parents.
  std::sort(order.begin(), order.end(),
            [](const VarNode* a, const VarNode* b) { return a->id > b->id; });
  Matrix seed = AcquireUninit(1, 1);
  seed(0, 0) = 1.0;
  node_->AccumulateGrad(std::move(seed));
  ReleaseScratch(std::move(seed));
  for (VarNode* n : order) {
    if (!n->requires_grad || !n->backward_fn || !n->has_grad()) continue;
    n->backward_fn(n->grad);
  }
}

namespace {

/// Accumulates `g` into `p`'s node when it participates in the tape.
void Acc(const std::shared_ptr<VarNode>& p, const Matrix& g) {
  if (p->requires_grad) p->AccumulateGrad(g);
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Matrix out = AcquireUninit(a.rows(), b.cols());
  MatMulInto(a.value(), b.value(), &out);
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(b);
  return MakeOpNode(std::move(out), {a, b}, [an, bn](const Matrix& g) {
    // d/dA (A B) = g B^T ; d/dB = A^T g.
    if (an->requires_grad) {
      Matrix ga = AcquireUninit(an->value.rows(), an->value.cols());
      MatMulTransposeBInto(g, bn->value, &ga);
      an->AccumulateGrad(std::move(ga));
      ReleaseScratch(std::move(ga));
    }
    if (bn->requires_grad) {
      Matrix gb = AcquireUninit(bn->value.rows(), bn->value.cols());
      MatMulTransposeAInto(an->value, g, &gb);
      bn->AccumulateGrad(std::move(gb));
      ReleaseScratch(std::move(gb));
    }
  });
}

Var Spmm(std::shared_ptr<const SparseMatrix> s, const Var& x) {
  GRGAD_CHECK(s != nullptr);
  Matrix out = AcquireUninit(s->rows(), x.cols());
  s->SpmmInto(x.value(), &out);
  auto xn = AutogradOps::node(x);
  return MakeOpNode(std::move(out), {x}, [s, xn](const Matrix& g) {
    // d/dX (S X) = S^T g.
    if (!xn->requires_grad) return;
    Matrix gx = AcquireUninit(s->cols(), g.cols());
    s->SpmmTransposeThisInto(g, &gx);
    xn->AccumulateGrad(std::move(gx));
    ReleaseScratch(std::move(gx));
  });
}

Var Add(const Var& a, const Var& b) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  AddInto(a.value(), b.value(), &out);
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(b);
  return MakeOpNode(std::move(out), {a, b}, [an, bn](const Matrix& g) {
    Acc(an, g);
    Acc(bn, g);
  });
}

Var Sub(const Var& a, const Var& b) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  SubInto(a.value(), b.value(), &out);
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(b);
  return MakeOpNode(std::move(out), {a, b}, [an, bn](const Matrix& g) {
    Acc(an, g);
    if (bn->requires_grad) {
      Matrix ng = AcquireUninit(g.rows(), g.cols());
      ScaledInto(g, -1.0, &ng);
      bn->AccumulateGrad(std::move(ng));
      ReleaseScratch(std::move(ng));
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  HadamardInto(a.value(), b.value(), &out);
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(b);
  return MakeOpNode(std::move(out), {a, b}, [an, bn](const Matrix& g) {
    if (an->requires_grad) {
      Matrix ga = AcquireUninit(g.rows(), g.cols());
      HadamardInto(g, bn->value, &ga);
      an->AccumulateGrad(std::move(ga));
      ReleaseScratch(std::move(ga));
    }
    if (bn->requires_grad) {
      Matrix gb = AcquireUninit(g.rows(), g.cols());
      HadamardInto(g, an->value, &gb);
      bn->AccumulateGrad(std::move(gb));
      ReleaseScratch(std::move(gb));
    }
  });
}

Var Scale(const Var& a, double s) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  ScaledInto(a.value(), s, &out);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an, s](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix ga = AcquireUninit(g.rows(), g.cols());
    ScaledInto(g, s, &ga);
    an->AccumulateGrad(std::move(ga));
    ReleaseScratch(std::move(ga));
  });
}

Var AddScalar(const Var& a, double s) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  a.value().MapToFn(&out, [s](double v) { return v + s; });
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a},
                    [an](const Matrix& g) { Acc(an, g); });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  GRGAD_CHECK_EQ(bias.rows(), 1u);
  GRGAD_CHECK_EQ(a.cols(), bias.cols());
  Matrix out = AcquireCopyOf(a.value());
  const double* brow = bias.value().RowPtr(0);
  for (size_t i = 0; i < out.rows(); ++i) {
    double* row = out.RowPtr(i);
    for (size_t j = 0; j < out.cols(); ++j) row[j] += brow[j];
  }
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(bias);
  return MakeOpNode(std::move(out), {a, bias}, [an, bn](const Matrix& g) {
    Acc(an, g);
    if (bn->requires_grad) {
      Matrix bg = AcquireZeroed(1, g.cols());
      for (size_t i = 0; i < g.rows(); ++i) {
        const double* row = g.RowPtr(i);
        for (size_t j = 0; j < g.cols(); ++j) bg(0, j) += row[j];
      }
      bn->AccumulateGrad(std::move(bg));
      ReleaseScratch(std::move(bg));
    }
  });
}

// The elementwise ops below use Matrix::MapToFn / flat loops over data()
// rather than the std::function Map: these run every epoch over n_nodes x
// hidden activations and an indirect call per element is measurable.
// Sigmoid/Tanh/Exp backward closures read the op output straight off their
// own node (raw self pointer; the closure is owned by the node and only
// runs while it is alive) instead of capturing a per-epoch copy.

Var Relu(const Var& a) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  a.value().MapToFn(&out, [](double v) { return v > 0.0 ? v : 0.0; });
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireCopyOf(g);
    double* __restrict gd = gg.data();
    const double* __restrict xd = an->value.data();
    const size_t size = gg.size();
    for (size_t i = 0; i < size; ++i) {
      if (xd[i] <= 0.0) gd[i] = 0.0;
    }
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var Sigmoid(const Var& a) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  a.value().MapToFn(&out,
                    [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  auto an = AutogradOps::node(a);
  auto n = internal::NewInteriorNode(std::move(out), {a});
  if (n->requires_grad) {
    // s' = s (1 - s), with s read from the node's own value.
    VarNode* self = n.get();
    n->backward_fn = [an, self](const Matrix& g) {
      if (!an->requires_grad) return;
      Matrix gg = AcquireCopyOf(g);
      double* __restrict gd = gg.data();
      const double* __restrict sd = self->value.data();
      const size_t size = gg.size();
      for (size_t i = 0; i < size; ++i) {
        gd[i] *= sd[i] * (1.0 - sd[i]);
      }
      an->AccumulateGrad(std::move(gg));
      ReleaseScratch(std::move(gg));
    };
  }
  return AutogradOps::Wrap(std::move(n));
}

Var Tanh(const Var& a) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  a.value().MapToFn(&out, [](double v) { return std::tanh(v); });
  auto an = AutogradOps::node(a);
  auto n = internal::NewInteriorNode(std::move(out), {a});
  if (n->requires_grad) {
    VarNode* self = n.get();
    n->backward_fn = [an, self](const Matrix& g) {
      if (!an->requires_grad) return;
      Matrix gg = AcquireCopyOf(g);
      double* __restrict gd = gg.data();
      const double* __restrict td = self->value.data();
      const size_t size = gg.size();
      for (size_t i = 0; i < size; ++i) {
        gd[i] *= 1.0 - td[i] * td[i];
      }
      an->AccumulateGrad(std::move(gg));
      ReleaseScratch(std::move(gg));
    };
  }
  return AutogradOps::Wrap(std::move(n));
}

Var Exp(const Var& a) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  a.value().MapToFn(&out, [](double v) { return std::exp(v); });
  auto an = AutogradOps::node(a);
  auto n = internal::NewInteriorNode(std::move(out), {a});
  if (n->requires_grad) {
    VarNode* self = n.get();
    n->backward_fn = [an, self](const Matrix& g) {
      if (!an->requires_grad) return;
      Matrix gg = AcquireUninit(g.rows(), g.cols());
      HadamardInto(g, self->value, &gg);
      an->AccumulateGrad(std::move(gg));
      ReleaseScratch(std::move(gg));
    };
  }
  return AutogradOps::Wrap(std::move(n));
}

Var Log(const Var& a, double eps) {
  Matrix out = AcquireUninit(a.rows(), a.cols());
  a.value().MapToFn(&out, [eps](double v) { return std::log(v + eps); });
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an, eps](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireCopyOf(g);
    double* __restrict gd = gg.data();
    const double* __restrict xd = an->value.data();
    const size_t size = gg.size();
    for (size_t i = 0; i < size; ++i) gd[i] /= (xd[i] + eps);
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var Transpose(const Var& a) {
  Matrix out = AcquireUninit(a.cols(), a.rows());
  TransposeInto(a.value(), &out);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireUninit(g.cols(), g.rows());
    TransposeInto(g, &gg);
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var SumAll(const Var& a) {
  Matrix out = AcquireUninit(1, 1);
  out(0, 0) = a.value().Sum();
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireUninit(an->value.rows(), an->value.cols());
    gg.Fill(g(0, 0));
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var MeanAll(const Var& a) {
  const double n = static_cast<double>(a.value().size());
  GRGAD_CHECK_GT(n, 0.0);
  return Scale(SumAll(a), 1.0 / n);
}

Var SumSquares(const Var& a) {
  Matrix out = AcquireUninit(1, 1);
  double s = 0.0;
  const Matrix& x = a.value();
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    for (size_t j = 0; j < x.cols(); ++j) s += row[j] * row[j];
  }
  out(0, 0) = s;
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireUninit(an->value.rows(), an->value.cols());
    ScaledInto(an->value, 2.0 * g(0, 0), &gg);
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var MseLoss(const Var& pred, const Matrix& target) {
  GRGAD_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  const Matrix& p = pred.value();
  double s = 0.0;
  for (size_t i = 0; i < p.rows(); ++i) {
    const double* prow = p.RowPtr(i);
    const double* trow = target.RowPtr(i);
    for (size_t j = 0; j < p.cols(); ++j) {
      const double d = prow[j] - trow[j];
      s += d * d;
    }
  }
  const double n = static_cast<double>(p.size());
  Matrix out = AcquireUninit(1, 1);
  out(0, 0) = s / n;
  auto pn = AutogradOps::node(pred);
  // `target` captured by pointer: callers keep it alive through Backward()
  // (see the header), which keeps the epoch loop free of per-epoch copies.
  const Matrix* tp = &target;
  return MakeOpNode(std::move(out), {pred}, [pn, tp, n](const Matrix& g) {
    if (!pn->requires_grad) return;
    Matrix gg = AcquireCopyOf(pn->value);
    gg.SubInPlace(*tp);
    gg *= 2.0 * g(0, 0) / n;
    pn->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var WeightedMseLoss(const Var& pred, const Matrix& target,
                    const Matrix& weights) {
  GRGAD_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  GRGAD_CHECK(pred.rows() == weights.rows() && pred.cols() == weights.cols());
  const Matrix& p = pred.value();
  double s = 0.0;
  for (size_t i = 0; i < p.rows(); ++i) {
    const double* prow = p.RowPtr(i);
    const double* trow = target.RowPtr(i);
    const double* wrow = weights.RowPtr(i);
    for (size_t j = 0; j < p.cols(); ++j) {
      const double d = prow[j] - trow[j];
      s += wrow[j] * d * d;
    }
  }
  const double n = static_cast<double>(p.size());
  Matrix out = AcquireUninit(1, 1);
  out(0, 0) = s / n;
  auto pn = AutogradOps::node(pred);
  const Matrix* tp = &target;   // Lifetime contract in the header.
  const Matrix* wp = &weights;
  return MakeOpNode(std::move(out), {pred},
                    [pn, tp, wp, n](const Matrix& g) {
                      if (!pn->requires_grad) return;
                      Matrix gg = AcquireCopyOf(pn->value);
                      gg.SubInPlace(*tp);
                      gg.MulInPlace(*wp);
                      gg *= 2.0 * g(0, 0) / n;
                      pn->AccumulateGrad(std::move(gg));
                      ReleaseScratch(std::move(gg));
                    });
}

Var GatherRows(const Var& a, std::vector<int> rows) {
  Matrix out = AcquireUninit(rows.size(), a.cols());
  a.value().GatherRowsInto(rows, &out);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a},
                    [an, rows = std::move(rows)](const Matrix& g) {
                      if (!an->requires_grad) return;
                      Matrix gg =
                          AcquireZeroed(an->value.rows(), an->value.cols());
                      for (size_t i = 0; i < rows.size(); ++i) {
                        double* dst = gg.RowPtr(rows[i]);
                        const double* src = g.RowPtr(i);
                        for (size_t j = 0; j < g.cols(); ++j) dst[j] += src[j];
                      }
                      an->AccumulateGrad(std::move(gg));
                      ReleaseScratch(std::move(gg));
                    });
}

Var MeanRows(const Var& a) {
  GRGAD_CHECK_GT(a.rows(), 0u);
  const size_t r = a.rows(), c = a.cols();
  Matrix out = AcquireZeroed(1, c);
  for (size_t i = 0; i < r; ++i) {
    const double* row = a.value().RowPtr(i);
    for (size_t j = 0; j < c; ++j) out(0, j) += row[j];
  }
  out *= 1.0 / static_cast<double>(r);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an, r, c](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireUninit(r, c);
    const double inv = 1.0 / static_cast<double>(r);
    for (size_t i = 0; i < r; ++i) {
      double* row = gg.RowPtr(i);
      for (size_t j = 0; j < c; ++j) row[j] = g(0, j) * inv;
    }
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var StackRows(const std::vector<Var>& rows) {
  GRGAD_CHECK(!rows.empty());
  const size_t c = rows[0].cols();
  Matrix out = AcquireUninit(rows.size(), c);
  for (size_t i = 0; i < rows.size(); ++i) {
    GRGAD_CHECK_EQ(rows[i].rows(), 1u);
    GRGAD_CHECK_EQ(rows[i].cols(), c);
    std::memcpy(out.RowPtr(i), rows[i].value().RowPtr(0), c * sizeof(double));
  }
  std::vector<std::shared_ptr<VarNode>> nodes;
  nodes.reserve(rows.size());
  for (const Var& v : rows) nodes.push_back(AutogradOps::node(v));
  return MakeOpNode(std::move(out), rows,
                    [nodes = std::move(nodes), c](const Matrix& g) {
                      for (size_t i = 0; i < nodes.size(); ++i) {
                        if (!nodes[i]->requires_grad) continue;
                        Matrix gi = AcquireUninit(1, c);
                        std::memcpy(gi.RowPtr(0), g.RowPtr(i),
                                    c * sizeof(double));
                        nodes[i]->AccumulateGrad(std::move(gi));
                        ReleaseScratch(std::move(gi));
                      }
                    });
}

Var ConcatCols(const Var& a, const Var& b) {
  GRGAD_CHECK_EQ(a.rows(), b.rows());
  const size_t r = a.rows(), ca = a.cols(), cb = b.cols();
  Matrix out = AcquireUninit(r, ca + cb);
  for (size_t i = 0; i < r; ++i) {
    std::memcpy(out.RowPtr(i), a.value().RowPtr(i), ca * sizeof(double));
    std::memcpy(out.RowPtr(i) + ca, b.value().RowPtr(i), cb * sizeof(double));
  }
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(b);
  return MakeOpNode(std::move(out), {a, b},
                    [an, bn, r, ca, cb](const Matrix& g) {
                      if (an->requires_grad) {
                        Matrix ga = AcquireUninit(r, ca);
                        for (size_t i = 0; i < r; ++i) {
                          std::memcpy(ga.RowPtr(i), g.RowPtr(i),
                                      ca * sizeof(double));
                        }
                        an->AccumulateGrad(std::move(ga));
                        ReleaseScratch(std::move(ga));
                      }
                      if (bn->requires_grad) {
                        Matrix gb = AcquireUninit(r, cb);
                        for (size_t i = 0; i < r; ++i) {
                          std::memcpy(gb.RowPtr(i), g.RowPtr(i) + ca,
                                      cb * sizeof(double));
                        }
                        bn->AccumulateGrad(std::move(gb));
                        ReleaseScratch(std::move(gb));
                      }
                    });
}

Var Reshape(const Var& a, size_t r, size_t c) {
  GRGAD_CHECK_EQ(a.value().size(), r * c);
  Matrix out = AcquireUninit(r, c);
  std::memcpy(out.data(), a.value().data(),
              a.value().size() * sizeof(double));
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireUninit(an->value.rows(), an->value.cols());
    std::memcpy(gg.data(), g.data(), g.size() * sizeof(double));
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

namespace {

using PairList = std::vector<std::pair<int, int>>;

Var PairInnerProductImpl(const Var& z,
                         std::shared_ptr<const PairList> pairs) {
  const PairList& pl = *pairs;
  const Matrix& zv = z.value();
  Matrix out = AcquireUninit(pl.size(), 1);
  for (size_t p = 0; p < pl.size(); ++p) {
    const auto [i, j] = pl[p];
    GRGAD_CHECK(i >= 0 && static_cast<size_t>(i) < zv.rows());
    GRGAD_CHECK(j >= 0 && static_cast<size_t>(j) < zv.rows());
    const double* zi = zv.RowPtr(i);
    const double* zj = zv.RowPtr(j);
    double s = 0.0;
    for (size_t k = 0; k < zv.cols(); ++k) s += zi[k] * zj[k];
    out(p, 0) = s;
  }
  auto zn = AutogradOps::node(z);
  return MakeOpNode(std::move(out), {z},
                    [zn, pairs = std::move(pairs)](const Matrix& g) {
                      if (!zn->requires_grad) return;
                      const Matrix& zv = zn->value;
                      Matrix gg = AcquireZeroed(zv.rows(), zv.cols());
                      const PairList& pl = *pairs;
                      for (size_t p = 0; p < pl.size(); ++p) {
                        const auto [i, j] = pl[p];
                        const double gp = g(p, 0);
                        const double* zi = zv.RowPtr(i);
                        const double* zj = zv.RowPtr(j);
                        double* gi = gg.RowPtr(i);
                        double* gj = gg.RowPtr(j);
                        for (size_t k = 0; k < zv.cols(); ++k) {
                          gi[k] += gp * zj[k];
                          gj[k] += gp * zi[k];
                        }
                      }
                      zn->AccumulateGrad(std::move(gg));
                      ReleaseScratch(std::move(gg));
                    });
}

}  // namespace

Var PairInnerProduct(const Var& z, std::vector<std::pair<int, int>> pairs) {
  return PairInnerProductImpl(
      z, std::make_shared<const PairList>(std::move(pairs)));
}

Var PairInnerProduct(const Var& z,
                     std::shared_ptr<const PairList> pairs) {
  GRGAD_CHECK(pairs != nullptr);
  return PairInnerProductImpl(z, std::move(pairs));
}

Var DiagMean(const Var& a) {
  GRGAD_CHECK_EQ(a.rows(), a.cols());
  const size_t n = a.rows();
  GRGAD_CHECK_GT(n, 0u);
  Matrix out = AcquireUninit(1, 1);
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a.value()(i, i);
  out(0, 0) = s / static_cast<double>(n);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an, n](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = AcquireZeroed(n, n);
    const double gv = g(0, 0) / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) gg(i, i) = gv;
    an->AccumulateGrad(std::move(gg));
    ReleaseScratch(std::move(gg));
  });
}

Var MaskedLogSumExp(const Var& a, const std::vector<uint8_t>& mask) {
  const Matrix& x = a.value();
  GRGAD_CHECK_EQ(mask.size(), x.size());
  double max_v = -HUGE_VAL;
  for (size_t i = 0; i < x.size(); ++i) {
    if (mask[i]) max_v = std::max(max_v, x.data()[i]);
  }
  GRGAD_CHECK(max_v > -HUGE_VAL);  // At least one masked-in entry.
  double sum_e = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (mask[i]) sum_e += std::exp(x.data()[i] - max_v);
  }
  Matrix out = AcquireUninit(1, 1);
  out(0, 0) = max_v + std::log(sum_e);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a},
                    [an, mask, max_v, sum_e](const Matrix& g) {
                      if (!an->requires_grad) return;
                      const Matrix& x = an->value;
                      Matrix gg = AcquireZeroed(x.rows(), x.cols());
                      const double gv = g(0, 0);
                      for (size_t i = 0; i < x.size(); ++i) {
                        if (!mask[i]) continue;
                        gg.data()[i] =
                            gv * std::exp(x.data()[i] - max_v) / sum_e;
                      }
                      an->AccumulateGrad(std::move(gg));
                      ReleaseScratch(std::move(gg));
                    });
}

}  // namespace grgad
