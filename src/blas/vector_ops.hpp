// Dense level-1 kernels, including the custom mixed-precision variants of
// paper §3.2.5 (device-resident WAXPBY etc. — here: single-pass fused
// kernels so precision conversion never costs an extra memory sweep).
//
// Local reductions accumulate in double regardless of storage precision
// (cheap on every platform, removes accumulation-order noise from the
// mixed-precision convergence study); distributed reductions communicate in
// the *storage* precision, preserving the benchmark's halved allreduce
// payloads for the single-precision solver.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "base/aligned_vector.hpp"
#include "base/error.hpp"
#include "base/types.hpp"
#include "comm/comm.hpp"
#include "precision/convert_batch.hpp"

namespace hpgmx {

namespace detail {

/// Partial-sum granularity of every *blocked* (deterministic) reduction:
/// one double partial per kReduceBlock contiguous elements, partials
/// combined sequentially in index order. Matches kConvertBlock so 16-bit
/// inputs widen through one staging tile per partial, and matches the
/// sparse kernels' row-block size (kEllBlockRows) so the fused
/// SpMV+dot / residual+norm kernels produce bit-identical sums.
inline constexpr std::size_t kReduceBlock = kConvertBlock;

/// Number of kReduceBlock-sized blocks covering n elements.
[[nodiscard]] constexpr std::size_t reduce_blocks(std::size_t n) {
  return (n + kReduceBlock - 1) / kReduceBlock;
}

/// Sum partials in index order — deterministic for any thread count.
template <typename Acc>
[[nodiscard]] Acc ordered_sum(const Acc* partial, std::size_t n,
                              std::size_t stride = 1) {
  Acc total = Acc(0);
  for (std::size_t i = 0; i < n; ++i) {
    total += partial[i * stride];
  }
  return total;
}

/// One block's dot contribution, accumulated sequentially in double. 16-bit
/// operands widen through a SIMD staging tile first; the double adds stay
/// sequential so the partial is the same no matter how the caller threads.
template <typename TX, typename TY>
[[nodiscard]] inline double dot_block(const TX* x, const TY* y,
                                      std::size_t len) {
  double p = 0.0;
  if constexpr (is_16bit_value_v<TX> && is_16bit_value_v<TY>) {
    float xs[kReduceBlock];
    float ys[kReduceBlock];
    widen_block(x, xs, len);
    widen_block(y, ys, len);
    for (std::size_t i = 0; i < len; ++i) {
      p = std::fma(static_cast<double>(xs[i]),
                   static_cast<double>(ys[i]), p);
    }
  } else if constexpr (is_16bit_value_v<TX>) {
    float xs[kReduceBlock];
    widen_block(x, xs, len);
    for (std::size_t i = 0; i < len; ++i) {
      p = std::fma(static_cast<double>(xs[i]),
                   static_cast<double>(y[i]), p);
    }
  } else if constexpr (is_16bit_value_v<TY>) {
    float ys[kReduceBlock];
    widen_block(y, ys, len);
    for (std::size_t i = 0; i < len; ++i) {
      p = std::fma(static_cast<double>(x[i]),
                   static_cast<double>(ys[i]), p);
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      p = std::fma(static_cast<double>(x[i]),
                   static_cast<double>(y[i]), p);
    }
  }
  return p;
}

}  // namespace detail

/// Deterministic blocked local dot in double: per-block partials combined in
/// index order, independent of the thread count. The fused passes
/// (spmv_dot, waxpby_norm, residual_norm2, gemv_n_sub_norm) reproduce
/// exactly these partials inside their own sweeps, so each equals its
/// kernel followed by this dot, bit for bit.
template <typename TX, typename TY>
[[nodiscard]] double dot_span_blocked(std::span<const TX> x,
                                      std::span<const TY> y) {
  HPGMX_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
  const std::size_t nblocks = detail::reduce_blocks(n);
  AlignedVector<double> partial(nblocks, 0.0);
  const TX* __restrict xv = x.data();
  const TY* __restrict yv = y.data();
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * detail::kReduceBlock;
    const std::size_t len = std::min(detail::kReduceBlock, n - i0);
    partial[blk] = detail::dot_block(xv + i0, yv + i0, len);
  }
  return detail::ordered_sum(partial.data(), partial.size());
}

/// Row-subset variant of dot_span_blocked: ⟨x, y⟩ over the listed entries,
/// blocked over the *list* (the operator's interior/boundary ordering).
/// The optimized-path spmv_dot computes exactly these partials in-kernel.
template <typename TX, typename TY>
[[nodiscard]] double dot_rows_blocked(std::span<const TX> x,
                                      std::span<const TY> y,
                                      std::span<const local_index_t> rows) {
  const std::size_t nk = rows.size();
  const std::size_t nblocks = detail::reduce_blocks(nk);
  AlignedVector<double> partial(nblocks, 0.0);
  const TX* __restrict xv = x.data();
  const TY* __restrict yv = y.data();
  const local_index_t* __restrict rws = rows.data();
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t k0 = blk * detail::kReduceBlock;
    const std::size_t k1 = std::min(nk, k0 + detail::kReduceBlock);
    double p = 0.0;
    for (std::size_t k = k0; k < k1; ++k) {
      const local_index_t r = rws[k];
      p = std::fma(static_cast<double>(static_cast<accum_t<TX>>(xv[r])),
                   static_cast<double>(static_cast<accum_t<TY>>(yv[r])), p);
    }
    partial[blk] = p;
  }
  return detail::ordered_sum(partial.data(), partial.size());
}

/// Local dot product. Accumulation happens in the wider of the two storage
/// precisions — fp32 inputs accumulate in fp32, exactly like the GPU
/// kernels of the paper's fp32 CGS2 (the re-orthogonalization step exists
/// to absorb precisely this roundoff). One partial per kReduceBlock
/// elements, partials summed in index order: the result is the same for
/// any thread count.
template <typename TX, typename TY>
[[nodiscard]] accum_t<wider_t<TX, TY>> dot_local(std::span<const TX> x,
                                                 std::span<const TY> y) {
  // 16-bit storage promotes through float (accum_t) so the sum runs on a
  // hardware type and keeps its digits.
  using Acc = accum_t<wider_t<TX, TY>>;
  HPGMX_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
  const std::size_t nblocks = detail::reduce_blocks(n);
  AlignedVector<Acc> partial(nblocks, Acc(0));
  const TX* __restrict xv = x.data();
  const TY* __restrict yv = y.data();
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * detail::kReduceBlock;
    const std::size_t i1 = std::min(n, i0 + detail::kReduceBlock);
    Acc acc = Acc(0);
    for (std::size_t i = i0; i < i1; ++i) {
      acc += static_cast<Acc>(xv[i]) * static_cast<Acc>(yv[i]);
    }
    partial[blk] = acc;
  }
  return detail::ordered_sum(partial.data(), nblocks);
}

/// Distributed dot in communication precision T (one allreduce). The fp32
/// instantiation halves both the local traffic and the allreduce payload —
/// the benchmark's mixed-precision communication saving.
template <typename T, typename TX, typename TY>
[[nodiscard]] T dot(Comm& comm, std::span<const TX> x, std::span<const TY> y) {
  const T local = static_cast<T>(dot_local(x, y));
  return comm.allreduce_scalar(local, ReduceOp::Sum);
}

/// Distributed 2-norm in communication precision T.
template <typename T, typename TX>
[[nodiscard]] T nrm2(Comm& comm, std::span<const TX> x) {
  const T sq = dot<T>(comm, x, x);
  return static_cast<T>(std::sqrt(static_cast<double>(sq)));
}

/// y += alpha * x.
template <typename S, typename TX, typename TY>
void axpy(S alpha, std::span<const TX> x, std::span<TY> y) {
  HPGMX_CHECK(x.size() == y.size());
  const TX* __restrict xv = x.data();
  TY* __restrict yv = y.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < x.size(); ++i) {
    yv[i] = static_cast<TY>(static_cast<S>(yv[i]) +
                            alpha * static_cast<S>(xv[i]));
  }
}

/// w = alpha * x + beta * y — the benchmark's WAXPBY, with independent
/// storage precisions on all three vectors (mixed-precision GMRES-IR update
/// kernels). Arithmetic in S (double for the required outer updates).
/// w may alias x or y (same-index in-place update), hence no __restrict.
template <typename S, typename TW, typename TX, typename TY>
void waxpby(S alpha, std::span<const TX> x, S beta, std::span<const TY> y,
            std::span<TW> w) {
  HPGMX_CHECK(x.size() == y.size() && x.size() == w.size());
  const TX* xv = x.data();
  const TY* yv = y.data();
  TW* wv = w.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < x.size(); ++i) {
    wv[i] = static_cast<TW>(alpha * static_cast<S>(xv[i]) +
                            beta * static_cast<S>(yv[i]));
  }
}

/// Fused WAXPBY + ‖w‖²: w = alpha·x + beta·y and the local squared 2-norm
/// of w in the same sweep — one fewer full read pass over w than
/// waxpby() followed by a dot (§3.2.5's single-pass custom-kernel idea
/// applied to the solver's update+norm pairs). The norm uses the *stored*
/// (rounded) w and the same ordered per-block double partials as
/// dot_span_blocked, so `waxpby_norm(...)` is bit-identical to
/// `waxpby(...); dot_span_blocked(w, w)` for any thread count. Aliasing
/// w with x or y is allowed (elementwise, same index only), which is how
/// CG fuses its in-place residual update with the next iteration's norm.
template <typename S, typename TW, typename TX, typename TY>
[[nodiscard]] double waxpby_norm(S alpha, std::span<const TX> x, S beta,
                                 std::span<const TY> y, std::span<TW> w) {
  HPGMX_CHECK(x.size() == y.size() && x.size() == w.size());
  const std::size_t n = x.size();
  const std::size_t nblocks = detail::reduce_blocks(n);
  AlignedVector<double> partial(nblocks, 0.0);
  // No __restrict: w is allowed to alias x or y (same-index in-place update).
  const TX* xv = x.data();
  const TY* yv = y.data();
  TW* wv = w.data();
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * detail::kReduceBlock;
    const std::size_t i1 = std::min(n, i0 + detail::kReduceBlock);
    double p = 0.0;
    for (std::size_t i = i0; i < i1; ++i) {
      wv[i] = static_cast<TW>(alpha * static_cast<S>(xv[i]) +
                              beta * static_cast<S>(yv[i]));
      const double wi = static_cast<double>(static_cast<accum_t<TW>>(wv[i]));
      p = std::fma(wi, wi, p);
    }
    partial[blk] = p;
  }
  return detail::ordered_sum(partial.data(), partial.size());
}

/// x *= alpha.
template <typename S, typename T>
void scal(S alpha, std::span<T> x) {
  T* __restrict xv = x.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < x.size(); ++i) {
    xv[i] = static_cast<T>(alpha * static_cast<S>(xv[i]));
  }
}

/// y = x with (possible) precision conversion — a single streaming pass
/// through the batched block primitives (precision/convert_batch.hpp), so
/// 16-bit endpoints convert SIMD-wide instead of one scalar at a time.
/// Bit-identical to the per-element static_cast loop it replaced.
template <typename TX, typename TY>
void convert_copy(std::span<const TX> x, std::span<TY> y) {
  convert_span(x, y);
}

/// x = value everywhere.
template <typename T>
void set_all(std::span<T> x, T value) {
  T* __restrict xv = x.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < x.size(); ++i) {
    xv[i] = value;
  }
}

}  // namespace hpgmx
