// Reverse-mode automatic differentiation over dense matrices.
//
// A Var is a shared handle to a node in a dynamically built tape
// (define-by-run, like PyTorch): every op records its parents and a backward
// closure. Var::Backward() on a 1x1 loss runs the tape in reverse creation
// order and accumulates gradients into every node with requires_grad set.
//
// The op set is exactly what the paper's models need: GCN layers
// (Spmm/MatMul/bias/ReLU), autoencoder losses (Sigmoid/MSE/pairwise inner
// products), TPGCL readout (GatherRows/MeanRows/StackRows), and the MINE
// objective of Eqn. (8) (ConcatCols/Reshape/DiagMean/MaskedLogSumExp). Every
// op's gradient is validated against finite differences in
// tests/nn/autograd_test.cc.
#ifndef GRGAD_NN_AUTOGRAD_H_
#define GRGAD_NN_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/sparse.h"

namespace grgad {

class MatrixArena;
class Var;

namespace internal {

/// Tape node: value, accumulated gradient, and the backward closure.
///
/// Nodes created while an ArenaScope is installed remember the arena and
/// return their value and gradient buffers to it on destruction (graph
/// teardown at the end of an epoch), which is what makes steady-state
/// training epochs heap-allocation-free. Such nodes must not outlive the
/// arena; training loops guarantee this by declaring the arena before any
/// Vars.
struct VarNode {
  Matrix value;
  Matrix grad;  // Empty until first accumulation.
  bool requires_grad = false;
  // ZeroGrad keeps an allocated gradient buffer and sets this instead of
  // freeing; the next AccumulateGrad overwrites in place.
  bool grad_zero = false;
  uint64_t id = 0;  // Monotonic creation index; defines topological order.
  MatrixArena* arena = nullptr;  // Recycles value/grad on teardown when set.
  std::vector<std::shared_ptr<VarNode>> parents;
  // Invoked with this node's output gradient; accumulates into parents.
  std::function<void(const Matrix&)> backward_fn;

  ~VarNode();

  /// True when a gradient has been accumulated since the last ZeroGrad.
  bool has_grad() const { return !grad.empty() && !grad_zero; }

  /// Adds g into grad: first accumulation copies (arena-backed when the
  /// node has an arena), later ones run the in-place AXPY kernel.
  /// Shape-checked.
  void AccumulateGrad(const Matrix& g);
  /// Move form for single-use scratch: a first accumulation adopts g's
  /// buffer outright (no copy); otherwise falls back to the const-ref path
  /// and leaves g intact. Callers release g afterwards either way — an
  /// adopted (moved-from) matrix is empty and the release is a no-op.
  void AccumulateGrad(Matrix&& g);
};

/// Creates an interior (op-output) node: requires_grad is the OR over
/// parents, and parent links are recorded only when it is set. The caller
/// attaches backward_fn afterwards (this is what lets closures capture the
/// node's own pointer, e.g. to read the op output in backward without
/// copying it). Exposed so layers.cc can define fused ops.
std::shared_ptr<VarNode> NewInteriorNode(Matrix value,
                                         const std::vector<Var>& parents);

}  // namespace internal

/// Shared handle to an autograd tape node.
///
/// Copying a Var aliases the underlying node (like a torch.Tensor handle).
/// Leaf Vars wrap a constant (requires_grad=false) or a trainable parameter
/// (requires_grad=true); ops produce interior nodes.
class Var {
 public:
  /// Undefined handle.
  Var() = default;

  /// Leaf node wrapping `value`.
  explicit Var(Matrix value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const;
  /// Mutable access to the value; used by optimizers for in-place updates.
  Matrix& mutable_value();
  /// Accumulated gradient; a reference to an empty Matrix if none was
  /// propagated since the last ZeroGrad (the cleared buffer itself may be
  /// retained internally for reuse — see ZeroGrad).
  const Matrix& grad() const;
  bool requires_grad() const;

  size_t rows() const { return value().rows(); }
  size_t cols() const { return value().cols(); }

  /// Clears the accumulated gradient. An allocated buffer is kept and marked
  /// cleared so the next epoch's first accumulation overwrites it in place.
  /// grad() reports empty afterwards.
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this node, which must hold a
  /// 1x1 value; seeds with d(loss)/d(loss) = 1.
  void Backward() const;

  /// Scalar convenience for 1x1 Vars.
  double item() const;

 private:
  explicit Var(std::shared_ptr<internal::VarNode> node)
      : node_(std::move(node)) {}

  std::shared_ptr<internal::VarNode> node_;

  friend class AutogradOps;
};

/// Grants the op free-functions access to Var's node (implementation detail).
class AutogradOps {
 public:
  static std::shared_ptr<internal::VarNode> node(const Var& v) {
    return v.node_;
  }
  static Var Wrap(std::shared_ptr<internal::VarNode> n) {
    return Var(std::move(n));
  }
};

// ---------------------------------------------------------------------------
// Ops. All shape preconditions are CHECKed.
// ---------------------------------------------------------------------------

/// a(m x k) * b(k x n).
Var MatMul(const Var& a, const Var& b);

/// Constant sparse s(m x k) * dense x(k x n). `s` must outlive backward; it
/// is held by shared_ptr.
Var Spmm(std::shared_ptr<const SparseMatrix> s, const Var& x);

/// Elementwise a + b (same shape).
Var Add(const Var& a, const Var& b);
/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);
/// Elementwise a * b (same shape).
Var Mul(const Var& a, const Var& b);
/// a * scalar.
Var Scale(const Var& a, double s);
/// a + scalar, elementwise (gradient passes through unchanged).
Var AddScalar(const Var& a, double s);
/// Adds the 1 x cols row vector `bias` to every row of a.
Var AddRowBroadcast(const Var& a, const Var& bias);

/// Elementwise max(0, x).
Var Relu(const Var& a);
/// Elementwise logistic sigmoid.
Var Sigmoid(const Var& a);
/// Elementwise tanh.
Var Tanh(const Var& a);
/// Elementwise exp.
Var Exp(const Var& a);
/// Elementwise log(x + eps); eps guards against log(0).
Var Log(const Var& a, double eps = 1e-12);

/// Transposed copy.
Var Transpose(const Var& a);

/// Sum of all entries -> 1x1.
Var SumAll(const Var& a);
/// Mean of all entries -> 1x1.
Var MeanAll(const Var& a);
/// Sum of squared entries -> 1x1 (L2 penalty building block).
Var SumSquares(const Var& a);

/// Mean squared error against a constant target -> 1x1. `target` is
/// captured by reference and must outlive Backward() (training loops hold
/// their targets across all epochs; capturing a copy per epoch was the
/// single largest non-arena allocation of the epoch loop). The deleted
/// rvalue overload rejects temporaries at compile time.
Var MseLoss(const Var& pred, const Matrix& target);
Var MseLoss(const Var& pred, Matrix&& target) = delete;
/// Per-entry weighted MSE against a constant target -> 1x1:
/// mean(w .* (pred - target)^2). `weights` must match pred's shape.
/// `target` and `weights` must outlive Backward() (see MseLoss;
/// temporaries are rejected at compile time).
Var WeightedMseLoss(const Var& pred, const Matrix& target,
                    const Matrix& weights);
Var WeightedMseLoss(const Var& pred, Matrix&& target,
                    const Matrix& weights) = delete;
Var WeightedMseLoss(const Var& pred, const Matrix& target,
                    Matrix&& weights) = delete;
Var WeightedMseLoss(const Var& pred, Matrix&& target, Matrix&& weights) =
    delete;

/// Gathers rows (duplicates allowed); backward scatter-adds.
Var GatherRows(const Var& a, std::vector<int> rows);

/// Column-wise mean over rows -> 1 x cols (graph readout).
Var MeanRows(const Var& a);

/// Stacks m Vars of shape 1 x d into an m x d matrix.
Var StackRows(const std::vector<Var>& rows);

/// Horizontal concatenation [a | b]; row counts must match.
Var ConcatCols(const Var& a, const Var& b);

/// Reinterprets the (row-major) data as r x c; element count must match.
Var Reshape(const Var& a, size_t r, size_t c);

/// out_p = dot(z[i_p], z[j_p]) for each pair -> p x 1. The inner-product
/// structure decoder of GAE, evaluated only on sampled pairs.
Var PairInnerProduct(const Var& z, std::vector<std::pair<int, int>> pairs);
/// Shared-ownership overload: epoch loops that reuse one fixed pair list
/// should build the shared_ptr once — the by-value overload copies the
/// list into the tape on every call.
Var PairInnerProduct(
    const Var& z,
    std::shared_ptr<const std::vector<std::pair<int, int>>> pairs);

/// Mean of the main diagonal of a square matrix -> 1x1.
Var DiagMean(const Var& a);

/// log(sum over entries with mask != 0 of exp(a_ij)) -> 1x1, computed
/// stably. At least one entry must be masked in.
Var MaskedLogSumExp(const Var& a, const std::vector<uint8_t>& mask);

}  // namespace grgad

#endif  // GRGAD_NN_AUTOGRAD_H_
