// Local (on-rank) sparse kernels: SpMV, residual, fused residual-restrict,
// and the fused SpMV+dot / residual+norm passes.
//
// All kernels are bandwidth-bound streaming loops; OpenMP parallelizes the
// row dimension. Accumulation happens in accum_t of the matrix value type,
// matching the GPU kernels of the paper (16-bit storage promotes through
// float; no hidden extra precision beyond that).
//
// The optimized path has one ELL kernel per motif, and every one walks a
// sorted row list (the operator's interior and boundary rows; all rows are
// interior on one rank) in kEllBlockRows-entry blocks with the slot loop
// outside the block: ell_spmv_rows, ell_spmv_rows_dot here, and the
// colored Gauss–Seidel row update in gauss_seidel.hpp. They share one
// accumulate helper whose only type-dependent step is loading — 16-bit
// value types gather a tile, widen it to fp32 with the batched primitives
// of precision/convert_batch.hpp and FMA at unit stride (converting one
// element at a time inside the hot loop never vectorizes); double and
// float load directly.
//
// The fused reduction kernels (csr_spmv_dot, ell_spmv_rows_dot,
// csr_residual_norm) compute their dot/norm as *ordered per-block partial
// sums in double*: each kEllBlockRows-row block contributes one partial,
// combined sequentially in block order. That makes the reduction
// deterministic for any thread count and bit-identical to the two-pass
// sequence (kernel, then dot_span_blocked/dot_rows_blocked over the same
// blocks); tests/test_fused.cpp checks it kernel by kernel.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "base/aligned_vector.hpp"
#include "base/error.hpp"
#include "base/types.hpp"
#include "blas/vector_ops.hpp"
#include "precision/convert_batch.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"

namespace hpgmx {

namespace detail {
/// Row-block size for ELL traversal: the accumulator block stays
/// L1-resident while the slot loop streams values/columns near-unit-stride
/// within the block. Also the partial-sum granularity of the fused
/// reduction kernels — it must equal kReduceBlock (vector_ops.hpp) for the
/// fused kernels to reproduce the blocked reductions' bits.
inline constexpr local_index_t kEllBlockRows = 1024;
static_assert(static_cast<std::size_t>(kEllBlockRows) == kReduceBlock,
              "fused kernels and blocked reductions must share one block "
              "size or the fused reductions stop matching them bit for bit");

/// Number of kEllBlockRows-entry blocks covering an n-entry row list.
[[nodiscard]] inline std::size_t num_row_blocks(std::size_t n) {
  const auto block = static_cast<std::size_t>(kEllBlockRows);
  return (n + block - 1) / block;
}

/// f(blk, rows, len) for each consecutive kEllBlockRows-entry block of a
/// row list, blocks in parallel.
template <typename F>
inline void for_each_row_block(std::span<const local_index_t> rows, F&& f) {
  const auto block = static_cast<std::size_t>(kEllBlockRows);
  const std::size_t nblocks = num_row_blocks(rows.size());
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t k0 = blk * block;
    f(blk, rows.data() + k0, std::min(rows.size(), k0 + block) - k0);
  }
}

/// dst[k] = src[idx[k]] widened to accum_t<T>, k < len ≤ kEllBlockRows:
/// one batched widen_block for the 16-bit types, a plain gather otherwise.
template <typename T>
inline void gather_widen(const T* __restrict src,
                         const local_index_t* __restrict idx, std::size_t len,
                         accum_t<T>* __restrict dst) {
  if constexpr (is_16bit_value_v<T>) {
    T tile[kEllBlockRows];
    for (std::size_t k = 0; k < len; ++k) {
      tile[k] = src[idx[k]];
    }
    widen_block(tile, dst, len);
  } else {
    for (std::size_t k = 0; k < len; ++k) {
      dst[k] = src[idx[k]];
    }
  }
}

/// dst[idx[k]] = T(src[k]), k < len ≤ kEllBlockRows: one batched
/// narrow_block for the 16-bit types, a plain scatter otherwise.
template <typename T>
inline void narrow_scatter(const accum_t<T>* __restrict src,
                           const local_index_t* __restrict idx,
                           std::size_t len, T* __restrict dst) {
  if constexpr (is_16bit_value_v<T>) {
    T tile[kEllBlockRows];
    narrow_block(src, tile, len);
    for (std::size_t k = 0; k < len; ++k) {
      dst[idx[k]] = tile[k];
    }
  } else {
    for (std::size_t k = 0; k < len; ++k) {
      dst[idx[k]] = src[k];
    }
  }
}

/// acc[k] += (or, with Subtract, −=) Σ_s A(rows[k], s) · x[col(rows[k], s)]
/// over one block of a sorted row list (len ≤ kEllBlockRows), slots in
/// order. Slot loop outside the block, so the slot-major value and column
/// streams are walked near-unit-stride. 16-bit types gather the slot's
/// value and x tiles, widen both to fp32 and FMA at unit stride.
template <bool Subtract, typename T>
inline void ell_rows_accumulate(const EllMatrix<T>& a, const T* __restrict xv,
                                const local_index_t* __restrict rows,
                                std::size_t len, accum_t<T>* __restrict acc) {
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const auto n = static_cast<std::size_t>(a.num_rows);
  if constexpr (is_16bit_value_v<T>) {
    T vtile[kEllBlockRows];
    T xtile[kEllBlockRows];
    float vstage[kEllBlockRows];
    float xstage[kEllBlockRows];
    for (local_index_t s = 0; s < a.slots; ++s) {
      const std::size_t base = static_cast<std::size_t>(s) * n;
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t at = base + static_cast<std::size_t>(rows[k]);
        vtile[k] = av[at];
        xtile[k] = xv[ci[at]];
      }
      widen_block(vtile, vstage, len);
      widen_block(xtile, xstage, len);
#pragma omp simd
      for (std::size_t k = 0; k < len; ++k) {
        if constexpr (Subtract) {
          acc[k] -= vstage[k] * xstage[k];
        } else {
          acc[k] += vstage[k] * xstage[k];
        }
      }
    }
  } else {
    for (local_index_t s = 0; s < a.slots; ++s) {
      const std::size_t base = static_cast<std::size_t>(s) * n;
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t at = base + static_cast<std::size_t>(rows[k]);
        if constexpr (Subtract) {
          acc[k] -= av[at] * xv[ci[at]];
        } else {
          acc[k] += av[at] * xv[ci[at]];
        }
      }
    }
  }
}
}  // namespace detail

/// y = A x (CSR). x covers owned + halo entries; y covers owned rows.
template <typename T>
void csr_spmv(const CsrMatrix<T>& a, std::span<const T> x, std::span<T> y) {
  HPGMX_CHECK(static_cast<local_index_t>(x.size()) >= a.num_cols);
  HPGMX_CHECK(static_cast<local_index_t>(y.size()) >= a.num_rows);
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
#pragma omp parallel for schedule(static)
  for (local_index_t r = 0; r < a.num_rows; ++r) {
    accum_t<T> acc = accum_t<T>(0);
    for (std::int64_t p = rp[r]; p < rp[r + 1]; ++p) {
      acc += av[p] * xv[ci[p]];
    }
    yv[r] = acc;
  }
}

/// Fused y = A x with ⟨y, x⟩ over the owned rows in the same pass (the
/// spmv_dot solver kernel, CSR/reference path). The dot uses the *stored*
/// (rounded) y values and accumulates ordered per-block partials in double,
/// so the result is bit-identical to csr_spmv followed by
/// dot_span_blocked(y, x) — at one fewer full sweep over y and x.
template <typename T>
[[nodiscard]] double csr_spmv_dot(const CsrMatrix<T>& a, std::span<const T> x,
                                  std::span<T> y) {
  HPGMX_CHECK(static_cast<local_index_t>(x.size()) >= a.num_cols);
  HPGMX_CHECK(static_cast<local_index_t>(y.size()) >= a.num_rows);
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
  const local_index_t n = a.num_rows;
  const local_index_t nblocks =
      (n + detail::kEllBlockRows - 1) / detail::kEllBlockRows;
  AlignedVector<double> partial(static_cast<std::size_t>(nblocks), 0.0);
#pragma omp parallel for schedule(static)
  for (local_index_t blk = 0; blk < nblocks; ++blk) {
    const local_index_t r0 = blk * detail::kEllBlockRows;
    const local_index_t r1 = std::min(n, r0 + detail::kEllBlockRows);
    double p = 0.0;
    for (local_index_t r = r0; r < r1; ++r) {
      accum_t<T> acc = accum_t<T>(0);
      for (std::int64_t q = rp[r]; q < rp[r + 1]; ++q) {
        acc += av[q] * xv[ci[q]];
      }
      yv[r] = acc;
      p = std::fma(static_cast<double>(yv[r]),
                   static_cast<double>(xv[r]), p);
    }
    partial[static_cast<std::size_t>(blk)] = p;
  }
  return detail::ordered_sum(partial.data(), partial.size());
}

/// y[r] = (A x)[r] for listed rows only (ELL); other entries of y are
/// untouched. The row list should be sorted (interior/boundary lists are),
/// so the blocked slot-major streams stay near-unit-stride.
template <typename T>
void ell_spmv_rows(const EllMatrix<T>& a, std::span<const T> x, std::span<T> y,
                   std::span<const local_index_t> rows) {
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
  detail::for_each_row_block(
      rows, [&](std::size_t, const local_index_t* rws, std::size_t len) {
        accum_t<T> acc[detail::kEllBlockRows] = {};
        detail::ell_rows_accumulate<false>(a, xv, rws, len, acc);
        detail::narrow_scatter(acc, rws, len, yv);
      });
}

/// Fused row-list ELL SpMV + partial ⟨y, x⟩ over those rows (the spmv_dot
/// solver kernel on the optimized path: one call per interior/boundary
/// list). Returns the ordered per-block partial sum in double, computed
/// from the stored (rounded) y — bit-identical to ell_spmv_rows followed by
/// dot_rows_blocked(y, x, rows).
template <typename T>
[[nodiscard]] double ell_spmv_rows_dot(const EllMatrix<T>& a,
                                       std::span<const T> x, std::span<T> y,
                                       std::span<const local_index_t> rows) {
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
  AlignedVector<double> partial(detail::num_row_blocks(rows.size()), 0.0);
  detail::for_each_row_block(
      rows, [&](std::size_t blk, const local_index_t* rws, std::size_t len) {
        accum_t<T> acc[detail::kEllBlockRows] = {};
        detail::ell_rows_accumulate<false>(a, xv, rws, len, acc);
        detail::narrow_scatter(acc, rws, len, yv);
        detail::gather_widen(yv, rws, len, acc);  // the rounded y
        accum_t<T> xo[detail::kEllBlockRows];
        detail::gather_widen(xv, rws, len, xo);
        double p = 0.0;
        for (std::size_t k = 0; k < len; ++k) {
          p = std::fma(static_cast<double>(acc[k]),
                       static_cast<double>(xo[k]), p);
        }
        partial[blk] = p;
      });
  return detail::ordered_sum(partial.data(), partial.size());
}

/// r = b − A x (CSR).
template <typename T>
void csr_residual(const CsrMatrix<T>& a, std::span<const T> b,
                  std::span<const T> x, std::span<T> r) {
  HPGMX_CHECK(static_cast<local_index_t>(x.size()) >= a.num_cols);
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  const T* __restrict bv = b.data();
  T* __restrict rv = r.data();
#pragma omp parallel for schedule(static)
  for (local_index_t row = 0; row < a.num_rows; ++row) {
    accum_t<T> acc = bv[row];
    for (std::int64_t p = rp[row]; p < rp[row + 1]; ++p) {
      acc -= av[p] * xv[ci[p]];
    }
    rv[row] = acc;
  }
}

/// Fused r = b − A x with ‖r‖² in the same pass (the waxpby_norm-family
/// fusion applied to the refinement residual — GMRES-IR's outer step reads
/// r again only for the norm, a full sweep this kernel eliminates). Same
/// ordered-partial contract as csr_spmv_dot: bit-identical to csr_residual
/// followed by dot_span_blocked(r, r).
template <typename T>
[[nodiscard]] double csr_residual_norm2(const CsrMatrix<T>& a,
                                        std::span<const T> b,
                                        std::span<const T> x, std::span<T> r) {
  HPGMX_CHECK(static_cast<local_index_t>(x.size()) >= a.num_cols);
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  const T* __restrict bv = b.data();
  T* __restrict rv = r.data();
  const local_index_t n = a.num_rows;
  const local_index_t nblocks =
      (n + detail::kEllBlockRows - 1) / detail::kEllBlockRows;
  AlignedVector<double> partial(static_cast<std::size_t>(nblocks), 0.0);
#pragma omp parallel for schedule(static)
  for (local_index_t blk = 0; blk < nblocks; ++blk) {
    const local_index_t r0 = blk * detail::kEllBlockRows;
    const local_index_t r1 = std::min(n, r0 + detail::kEllBlockRows);
    double p = 0.0;
    for (local_index_t row = r0; row < r1; ++row) {
      accum_t<T> acc = bv[row];
      for (std::int64_t q = rp[row]; q < rp[row + 1]; ++q) {
        acc -= av[q] * xv[ci[q]];
      }
      rv[row] = acc;
      const double ri = static_cast<double>(rv[row]);
      p = std::fma(ri, ri, p);
    }
    partial[static_cast<std::size_t>(blk)] = p;
  }
  return detail::ordered_sum(partial.data(), partial.size());
}

/// Fused smoothed-residual + injection restriction (paper §3.2.4):
/// rc[i] = b[c2f(i)] − (A x)[c2f(i)], evaluated only at coarse points.
/// Replaces a full fine-grid residual followed by an injection pass.
///
/// `TOut` may differ from the fine level's `T`: a precision-scheduled
/// multigrid demotes (or promotes) the coarse residual on the final store,
/// inside this kernel, so crossing a precision boundary between levels adds
/// no extra full-grid conversion pass.
template <typename T, typename TOut = T>
void fused_restrict_residual(const CsrMatrix<T>& a_fine, std::span<const T> b,
                             std::span<const T> x,
                             std::span<const local_index_t> c2f,
                             std::span<TOut> rc) {
  HPGMX_CHECK(rc.size() >= c2f.size());
  const std::int64_t* __restrict rp = a_fine.row_ptr.data();
  const local_index_t* __restrict ci = a_fine.col_idx.data();
  const T* __restrict av = a_fine.values.data();
  const T* __restrict xv = x.data();
  const T* __restrict bv = b.data();
  TOut* __restrict rcv = rc.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < c2f.size(); ++i) {
    const local_index_t fr = c2f[i];
    accum_t<T> acc = bv[fr];
    for (std::int64_t p = rp[fr]; p < rp[fr + 1]; ++p) {
      acc -= av[p] * xv[ci[p]];
    }
    rcv[i] = static_cast<TOut>(acc);
  }
}

/// Injection prolongation + correction: x[c2f(i)] += alpha · zc[i].
///
/// `TC` (coarse) may be narrower or wider than `TF` (fine): a precision-
/// scheduled multigrid promotes the coarse correction here, on the fly,
/// instead of in a separate conversion pass. `alpha` compensates a
/// *per-level* demotion-scale mismatch — when the coarse operator was
/// stored as α_c·A_c and the fine one as α_f·A_f, the coarse correction is
/// 1/α_c too large relative to the fine level's scaled system, so the
/// caller passes alpha = α_c/α_f (1.0 on every uniform path, where the
/// fast branch keeps the original arithmetic).
template <typename TC, typename TF>
void prolong_correct(std::span<const local_index_t> c2f, std::span<const TC> zc,
                     std::span<TF> x, double alpha = 1.0) {
  const local_index_t* __restrict map = c2f.data();
  const TC* __restrict z = zc.data();
  TF* __restrict xv = x.data();
  if constexpr (std::is_same_v<TC, TF>) {
    if (alpha == 1.0) {
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < c2f.size(); ++i) {
        xv[map[i]] += z[i];
      }
      return;
    }
  }
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < c2f.size(); ++i) {
    using Acc = wider_t<accum_t<TF>, accum_t<TC>>;
    const Acc zi = static_cast<Acc>(static_cast<accum_t<TC>>(z[i]) *
                                    static_cast<Acc>(alpha));
    xv[map[i]] = static_cast<TF>(static_cast<accum_t<TF>>(xv[map[i]]) + zi);
  }
}

/// Injection restriction alone (reference path): rc[i] = rf[c2f(i)],
/// converting between level formats on the store (see
/// fused_restrict_residual).
template <typename T, typename TOut = T>
void inject_restrict(std::span<const local_index_t> c2f, std::span<const T> rf,
                     std::span<TOut> rc) {
  const local_index_t* __restrict map = c2f.data();
  const T* __restrict r = rf.data();
  TOut* __restrict rcv = rc.data();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < c2f.size(); ++i) {
    rcv[i] = static_cast<TOut>(r[map[i]]);
  }
}

}  // namespace hpgmx
