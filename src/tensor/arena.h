// Shape-keyed recycling arena for Matrix buffers.
//
// Training rebuilds a structurally identical autograd tape every epoch, so
// every forward value, gradient, and backward temporary has the same shape
// in epoch k+1 as the buffer that was torn down at the end of epoch k. A
// MatrixArena keeps those torn-down buffers on per-shape free lists and
// hands them back on the next Acquire, making steady-state epochs heap-
// allocation-free: after a short warmup (the first epoch, plus one stray
// buffer in the second as parameter-gradient buffers settle onto their leaf
// nodes) every Acquire is served from a free list.
//
// Threading model: one arena per training run, installed for the training
// thread with an ArenaScope. All members are mutex-guarded, so buffers may
// be acquired/released from any thread, but the intended pattern is a
// single training thread per arena (the tape is built and walked serially;
// only the kernels underneath fan out to the pool, and they never touch the
// arena).
//
// The arena only recycles memory — it never changes values. Acquire()
// returns a zero-filled matrix, exactly like the Matrix(rows, cols)
// constructor it replaces, and AcquireUninit() is reserved for destinations
// that every kernel fully overwrites. Results are therefore bitwise
// identical with and without an arena installed (see PERF.md, "Determinism
// contract").
#ifndef GRGAD_TENSOR_ARENA_H_
#define GRGAD_TENSOR_ARENA_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/util/cancel.h"

namespace grgad {

/// Recycles Matrix heap buffers across structurally identical training
/// epochs. Free lists are keyed by exact (rows, cols) shape.
class MatrixArena {
 public:
  /// Allocation counters. `heap_allocs` is the figure of merit: in steady
  /// state (every epoch after warmup) it must not grow.
  struct Stats {
    uint64_t acquired = 0;     ///< Total Acquire/AcquireUninit/AcquireCopy.
    uint64_t reused = 0;       ///< Acquires served from a free list.
    uint64_t heap_allocs = 0;  ///< Acquires that had to allocate fresh.
    uint64_t released = 0;     ///< Buffers returned to the arena.
    uint64_t bytes_served = 0; ///< Bytes handed out (fresh + reused).
    uint64_t heap_bytes = 0;   ///< Bytes of fresh heap allocations.
  };

  MatrixArena() = default;
  MatrixArena(const MatrixArena&) = delete;
  MatrixArena& operator=(const MatrixArena&) = delete;

  /// Returns a zero-filled rows x cols matrix, reusing a free buffer of the
  /// same shape when one is available.
  Matrix Acquire(size_t rows, size_t cols);

  /// Like Acquire but without the zero fill; the caller must overwrite
  /// every element before reading any (reused buffers hold stale values).
  Matrix AcquireUninit(size_t rows, size_t cols);

  /// Returns a copy of `src` backed by arena storage.
  Matrix AcquireCopy(const Matrix& src);

  /// Takes ownership of `m`'s buffer for future Acquires of its shape.
  /// Empty matrices are ignored.
  void Release(Matrix&& m);

  /// Frees every parked buffer (stats are kept). Long-lived arenas shared
  /// across fits of differently-shaped graphs should Clear() between
  /// workloads: free lists are keyed by exact shape, so buffers from a
  /// stale graph size are never reused and would otherwise be held until
  /// arena destruction.
  void Clear();

  Stats stats() const;
  void ResetStats();

  /// Arms a soft byte budget over fresh heap allocations (0 disarms). The
  /// breaching Acquire still succeeds — the budget is a control-plane limit,
  /// not a hard OOM — but the arena marks itself exhausted and fires the
  /// stop token (StopReason::kResourceExhausted), so the training loop
  /// unwinds at its next per-epoch poll through exactly the cancelled-fit
  /// teardown path. The pipeline then reports kResourceExhausted instead of
  /// aborting. The "arena/alloc" fault point (src/util/fault.h) triggers
  /// the same path regardless of budget.
  void SetByteBudget(uint64_t bytes);
  uint64_t byte_budget() const;

  /// The token fired on budget breach; typically the run's CancelToken so
  /// existing epoch polls see the stop.
  void SetStopToken(CancelToken token);

  /// True once a fresh allocation breached the budget (or an arena/alloc
  /// fault fired). Cleared by SetByteBudget.
  bool budget_exhausted() const;

  /// Buffers currently parked on free lists.
  size_t free_buffers() const;
  /// Acquired minus released. <= 0 means every buffer this arena handed
  /// out has come back; negative values mean it also adopted buffers it
  /// never served (leaf-node values allocated before their tape entered
  /// the arena — tape teardown returns those too, which only grows the
  /// free lists).
  int64_t outstanding() const;

 private:
  Matrix AcquireInternal(size_t rows, size_t cols, bool zero_fill);

  mutable std::mutex mu_;
  // Shape key (rows << 32 | cols) -> parked buffers of that exact shape.
  std::unordered_map<uint64_t, std::vector<Matrix>> free_;
  Stats stats_;
  uint64_t byte_budget_ = 0;  // 0 = unlimited.
  bool budget_exhausted_ = false;
  std::optional<CancelToken> stop_;
};

/// Installs `arena` as the calling thread's current arena for the lifetime
/// of the scope (nullptr uninstalls; scopes nest and restore on exit).
/// Autograd node values, gradients, and backward temporaries are drawn from
/// the current arena when one is installed, and fall back to plain heap
/// matrices otherwise.
class ArenaScope {
 public:
  explicit ArenaScope(MatrixArena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  MatrixArena* prev_;
};

/// The calling thread's installed arena, or nullptr.
MatrixArena* CurrentArena();

namespace arena {

// Current-arena allocation helpers: one shared implementation of the
// "arena if installed, plain heap Matrix otherwise" pattern used by every
// autograd op and fused-layer kernel for outputs and backward scratch.

/// Zero-filled rows x cols matrix.
Matrix Zeroed(size_t rows, size_t cols);
/// No zero fill; the caller must overwrite every element before reading
/// any (reused buffers hold stale values).
Matrix Uninit(size_t rows, size_t cols);
/// Copy of `src`.
Matrix CopyOf(const Matrix& src);
/// Returns finished scratch to the current arena (frees it when none is
/// installed).
void Recycle(Matrix&& m);

}  // namespace arena

}  // namespace grgad

#endif  // GRGAD_TENSOR_ARENA_H_
