#include "src/tensor/arena.h"

#include <cstring>
#include <utility>

#include "src/util/fault.h"

namespace grgad {

namespace {

uint64_t ShapeKey(size_t rows, size_t cols) {
  return (static_cast<uint64_t>(rows) << 32) | static_cast<uint64_t>(cols);
}

thread_local MatrixArena* g_current_arena = nullptr;

}  // namespace

Matrix MatrixArena::AcquireInternal(size_t rows, size_t cols,
                                    bool zero_fill) {
  const size_t bytes = rows * cols * sizeof(double);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.acquired++;
    stats_.bytes_served += bytes;
    auto it = free_.find(ShapeKey(rows, cols));
    if (it != free_.end() && !it->second.empty()) {
      stats_.reused++;
      Matrix out = std::move(it->second.back());
      it->second.pop_back();
      if (zero_fill) out.Fill(0.0);
      return out;
    }
    stats_.heap_allocs++;
    stats_.heap_bytes += bytes;
    // Budget governor: a breach (or an injected arena/alloc fault) does not
    // fail this allocation — it fires the stop token so the training loop
    // unwinds cleanly at its next poll instead of ever reaching real OOM.
    const bool over_budget =
        byte_budget_ > 0 && stats_.heap_bytes > byte_budget_;
    if ((over_budget || FaultInjector::Global().Fires("arena/alloc")) &&
        !budget_exhausted_) {
      budget_exhausted_ = true;
      if (stop_.has_value()) {
        stop_->RequestStop(StopReason::kResourceExhausted);
      }
    }
  }
  return Matrix(rows, cols);  // Zero-initialized by construction.
}

Matrix MatrixArena::Acquire(size_t rows, size_t cols) {
  return AcquireInternal(rows, cols, /*zero_fill=*/true);
}

Matrix MatrixArena::AcquireUninit(size_t rows, size_t cols) {
  return AcquireInternal(rows, cols, /*zero_fill=*/false);
}

Matrix MatrixArena::AcquireCopy(const Matrix& src) {
  Matrix out = AcquireInternal(src.rows(), src.cols(), /*zero_fill=*/false);
  if (!src.empty()) {
    std::memcpy(out.data(), src.data(), src.size() * sizeof(double));
  }
  return out;
}

void MatrixArena::Release(Matrix&& m) {
  if (m.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.released++;
  free_[ShapeKey(m.rows(), m.cols())].push_back(std::move(m));
}

void MatrixArena::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  free_.clear();
}

MatrixArena::Stats MatrixArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MatrixArena::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats();
}

void MatrixArena::SetByteBudget(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  budget_exhausted_ = false;
}

uint64_t MatrixArena::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void MatrixArena::SetStopToken(CancelToken token) {
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = std::move(token);
}

bool MatrixArena::budget_exhausted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_exhausted_;
}

size_t MatrixArena::free_buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [key, list] : free_) total += list.size();
  return total;
}

int64_t MatrixArena::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(stats_.acquired) -
         static_cast<int64_t>(stats_.released);
}

ArenaScope::ArenaScope(MatrixArena* arena) : prev_(g_current_arena) {
  g_current_arena = arena;
}

ArenaScope::~ArenaScope() { g_current_arena = prev_; }

MatrixArena* CurrentArena() { return g_current_arena; }

namespace arena {

Matrix Zeroed(size_t rows, size_t cols) {
  MatrixArena* a = CurrentArena();
  return a != nullptr ? a->Acquire(rows, cols) : Matrix(rows, cols);
}

Matrix Uninit(size_t rows, size_t cols) {
  MatrixArena* a = CurrentArena();
  return a != nullptr ? a->AcquireUninit(rows, cols) : Matrix(rows, cols);
}

Matrix CopyOf(const Matrix& src) {
  MatrixArena* a = CurrentArena();
  return a != nullptr ? a->AcquireCopy(src) : src;
}

void Recycle(Matrix&& m) {
  MatrixArena* a = CurrentArena();
  if (a != nullptr) a->Release(std::move(m));
}

}  // namespace arena

}  // namespace grgad
