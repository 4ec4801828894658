// Tall-skinny multivector (the Krylov basis Q) and the two dense BLAS-2
// kernels of CGS2 orthogonalization (paper alg. 3 lines 21–25):
//
//   gemv_t : h = Q[:,1:k]ᵀ w   — k dot products batched into ONE allreduce,
//                                the latency optimization §4.1 credits for
//                                CGS2's scalability;
//   gemv_n : w ← w − Q[:,1:k] h — the subtraction update.
//
// Storage is column-major so each basis vector is contiguous (SpMV output
// writes straight into the next column).
#pragma once

#include <algorithm>
#include <span>

#include "base/aligned_vector.hpp"
#include "base/error.hpp"
#include "base/types.hpp"
#include "blas/vector_ops.hpp"
#include "comm/comm.hpp"

namespace hpgmx {

template <typename T>
class MultiVector {
 public:
  MultiVector() = default;
  MultiVector(local_index_t rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              T(0)) {}

  [[nodiscard]] local_index_t rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  [[nodiscard]] std::span<T> column(int j) {
    HPGMX_CHECK(j >= 0 && j < cols_);
    return {data_.data() + static_cast<std::size_t>(j) *
                               static_cast<std::size_t>(rows_),
            static_cast<std::size_t>(rows_)};
  }
  [[nodiscard]] std::span<const T> column(int j) const {
    HPGMX_CHECK(j >= 0 && j < cols_);
    return {data_.data() + static_cast<std::size_t>(j) *
                               static_cast<std::size_t>(rows_),
            static_cast<std::size_t>(rows_)};
  }

  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] T* data() { return data_.data(); }

 private:
  local_index_t rows_ = 0;
  int cols_ = 0;
  AlignedVector<T> data_;
};

/// column(j) ← scale · v — batched right-hand-side construction for the
/// many-RHS solver entry points (scale 1 is a plain column copy).
template <typename T>
void set_column_scaled(MultiVector<T>& q, int j, std::span<const T> v,
                       T scale) {
  auto col = q.column(j);
  HPGMX_CHECK(v.size() >= col.size());
  const T* __restrict vv = v.data();
  T* __restrict cv = col.data();
  const local_index_t n = q.rows();
#pragma omp parallel for schedule(static)
  for (local_index_t i = 0; i < n; ++i) {
    cv[i] = vv[i] * scale;
  }
}

/// h[j] = (Q[:,j], w) for j < k, batched into a single length-k allreduce in
/// precision T. Local accumulation in T, matching the benchmark's fp32 CGS2
/// kernels (reorthogonalization absorbs the roundoff — alg. 3 lines 24–26):
/// one partial per column per kReduceBlock rows, summed in index order, so
/// h is the same for any thread count.
template <typename T>
void gemv_t(Comm& comm, const MultiVector<T>& q, int k, std::span<const T> w,
            std::span<T> h) {
  HPGMX_CHECK(k >= 0 && k <= q.cols());
  HPGMX_CHECK(static_cast<int>(h.size()) >= k);
  HPGMX_CHECK(static_cast<local_index_t>(w.size()) >= q.rows());
  using Acc = accum_t<T>;
  const auto n = static_cast<std::size_t>(q.rows());
  const auto kk = static_cast<std::size_t>(k);
  const std::size_t nblocks = detail::reduce_blocks(n);
  AlignedVector<Acc> partial(nblocks * kk, Acc(0));  // [block][column]
  const T* __restrict qd = q.data();
  const T* __restrict wv = w.data();
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * detail::kReduceBlock;
    const std::size_t i1 = std::min(n, i0 + detail::kReduceBlock);
    for (std::size_t j = 0; j < kk; ++j) {
      const T* __restrict col = qd + j * n;
      Acc acc = Acc(0);
      for (std::size_t i = i0; i < i1; ++i) {
        acc += col[i] * wv[i];
      }
      partial[blk * kk + j] = acc;
    }
  }
  AlignedVector<T> local(kk, T(0));
  for (std::size_t j = 0; j < kk; ++j) {
    local[j] = static_cast<T>(
        detail::ordered_sum(partial.data() + j, nblocks, kk));
  }
  comm.allreduce(std::span<const T>(local.data(), local.size()),
                 h.subspan(0, kk), ReduceOp::Sum);
}

/// w ← w − Q[:,1:k] h. One pass over w; the k basis-vector streams are read
/// unit-stride.
template <typename T>
void gemv_n_sub(const MultiVector<T>& q, int k, std::span<const T> h,
                std::span<T> w) {
  HPGMX_CHECK(k >= 0 && k <= q.cols());
  const local_index_t n = q.rows();
  const T* __restrict qd = q.data();
  const T* __restrict hv = h.data();
  T* __restrict wv = w.data();
#pragma omp parallel for schedule(static)
  for (local_index_t i = 0; i < n; ++i) {
    accum_t<T> acc = wv[i];
    for (int j = 0; j < k; ++j) {
      acc -= qd[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(i)] *
             hv[j];
    }
    wv[i] = static_cast<T>(acc);
  }
}

/// w ← w − Q[:,1:k] h with the local ‖w‖² folded into the same sweep — the
/// CGS2 normalization fusion: the norm that follows the second projection
/// pass (alg. 3 line 26) rides on the w values the update already holds in
/// registers, saving the separate full read sweep of w. The reduction is
/// the same ordered per-kReduceBlock double partial sum as
/// dot_span_blocked(w, w), computed from the *stored* (rounded) w values,
/// so `gemv_n_sub_norm(...)` is bit-identical to `gemv_n_sub(...);
/// dot_span_blocked(w, w)` for any thread count.
template <typename T>
[[nodiscard]] double gemv_n_sub_norm(const MultiVector<T>& q, int k,
                                     std::span<const T> h, std::span<T> w) {
  HPGMX_CHECK(k >= 0 && k <= q.cols());
  const local_index_t n = q.rows();
  const T* __restrict qd = q.data();
  const T* __restrict hv = h.data();
  T* __restrict wv = w.data();
  const std::size_t nblocks =
      detail::reduce_blocks(static_cast<std::size_t>(n));
  AlignedVector<double> partial(nblocks, 0.0);
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * detail::kReduceBlock;
    const std::size_t i1 =
        std::min(static_cast<std::size_t>(n), i0 + detail::kReduceBlock);
    for (std::size_t i = i0; i < i1; ++i) {
      accum_t<T> acc = wv[i];
      for (int j = 0; j < k; ++j) {
        acc -= qd[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                  i] *
               hv[j];
      }
      wv[i] = static_cast<T>(acc);
    }
    partial[blk] = detail::dot_block(wv + i0, wv + i0, i1 - i0);
  }
  return detail::ordered_sum(partial.data(), partial.size());
}

/// w ← Q[:,1:k] t (used for the restart correction r = Q t, alg. 3 line 46).
template <typename T>
void gemv_n(const MultiVector<T>& q, int k, std::span<const T> t,
            std::span<T> w) {
  HPGMX_CHECK(k >= 0 && k <= q.cols());
  const local_index_t n = q.rows();
  const T* __restrict qd = q.data();
  const T* __restrict tv = t.data();
  T* __restrict wv = w.data();
#pragma omp parallel for schedule(static)
  for (local_index_t i = 0; i < n; ++i) {
    accum_t<T> acc = accum_t<T>(0);
    for (int j = 0; j < k; ++j) {
      acc += qd[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(i)] *
             tv[j];
    }
    wv[i] = static_cast<T>(acc);
  }
}

}  // namespace hpgmx
