// Local (on-rank) sparse kernels: SpMV, residual, fused residual-restrict,
// fused SpMV+dot / residual+norm passes, and row-subset variants used by the
// compute–communication overlap engine.
//
// All kernels are bandwidth-bound streaming loops; OpenMP parallelizes the
// row dimension. Accumulation happens in accum_t of the matrix value type,
// matching the GPU kernels of the paper (16-bit storage promotes through
// float; no hidden extra precision beyond that).
//
// 16-bit value types take a *staged* ELL path: each row block widens a tile
// of `values` (and the gathered `x` entries) into an fp32 staging buffer
// with the batched primitives of precision/convert_batch.hpp, then FMAs
// across slots at unit stride — the scalar promote-through-float loop
// converts one element at a time inside the hot loop and never vectorizes.
// The scalar path stays available as *_scalar for ablation benchmarks.
//
// The fused reduction kernels (csr_spmv_dot, ell_spmv_rows_dot,
// csr_residual_norm) compute their dot/norm as *ordered per-block partial
// sums in double*: each kEllBlockRows-row block contributes one partial,
// combined sequentially in block order. That makes the reduction
// deterministic for any thread count and bit-identical to the two-pass
// sequence (kernel, then dot_span_blocked/dot_rows_blocked over the same
// blocks); tests/test_fused.cpp checks it kernel by kernel.
#pragma once

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
/// Row-block size for ELL traversal: the y sub-block stays L1-resident while
/// the slot loop streams values/columns unit-stride within the block. Also
/// the partial-sum granularity of the fused reduction kernels — it must
/// equal kReduceBlock (vector_ops.hpp) for the fused kernels to reproduce
/// the blocked reductions' bits.
inline constexpr local_index_t kEllBlockRows = 1024;
static_assert(static_cast<std::size_t>(kEllBlockRows) == kReduceBlock,
              "fused kernels and blocked reductions must share one block "
              "size or the fused reductions stop matching them bit for bit");

/// Staged 16-bit accumulation over one contiguous ELL row block
/// [r0, r0+len): per slot, widen the contiguous value tile and the gathered
/// x tile into fp32 staging buffers, then FMA at unit stride.
template <typename T>
inline void ell_block_accumulate_staged(const EllMatrix<T>& a,
                                        const T* __restrict xv, float* acc,
                                        local_index_t r0, std::size_t len) {
  static_assert(is_16bit_value_v<T>);
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  float vstage[kEllBlockRows];
  float xstage[kEllBlockRows];
  T xtile[kEllBlockRows];
  for (local_index_t s = 0; s < a.slots; ++s) {
    const std::size_t base = static_cast<std::size_t>(s) *
                                 static_cast<std::size_t>(a.num_rows) +
                             static_cast<std::size_t>(r0);
    widen_block(av + base, vstage, len);
    const local_index_t* cols = ci + base;
    for (std::size_t k = 0; k < len; ++k) {
      xtile[k] = xv[cols[k]];
    }
    widen_block(xtile, xstage, len);
#pragma omp simd
    for (std::size_t k = 0; k < len; ++k) {
      acc[k] += vstage[k] * xstage[k];
    }
  }
}

/// Staged 16-bit accumulation over a row-list block rows[k0..k0+len): like
/// the contiguous variant but the value/column streams are gathered through
/// the (sorted, near-contiguous) row list before widening.
template <typename T>
inline void ell_block_accumulate_staged_rows(
    const EllMatrix<T>& a, const T* __restrict xv, float* acc,
    const local_index_t* __restrict rows, std::size_t len) {
  static_assert(is_16bit_value_v<T>);
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  float vstage[kEllBlockRows];
  float xstage[kEllBlockRows];
  T vtile[kEllBlockRows];
  T xtile[kEllBlockRows];
  for (local_index_t s = 0; s < a.slots; ++s) {
    const std::size_t base = static_cast<std::size_t>(s) *
                             static_cast<std::size_t>(a.num_rows);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t at = base + static_cast<std::size_t>(rows[k]);
      vtile[k] = av[at];
      xtile[k] = xv[ci[at]];
    }
    widen_block(vtile, vstage, len);
    widen_block(xtile, xstage, len);
#pragma omp simd
    for (std::size_t k = 0; k < len; ++k) {
      acc[k] += vstage[k] * xstage[k];
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

/// y[r] = (A x)[r] for r in rows only; other entries of y untouched.
template <typename T>
void csr_spmv_rows(const CsrMatrix<T>& a, std::span<const T> x, std::span<T> y,
                   std::span<const local_index_t> rows) {
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const local_index_t r = rows[k];
    accum_t<T> acc = accum_t<T>(0);
    for (std::int64_t p = rp[r]; p < rp[r + 1]; ++p) {
      acc += av[p] * xv[ci[p]];
    }
    yv[r] = acc;
  }
}

/// Scalar (promote-through-float) ELL SpMV — the pre-staging loop, kept as
/// the ablation baseline micro_kernels measures the staged path against,
/// and the kernel the hardware types use (their "conversion" is free).
template <typename T>
void ell_spmv_scalar(const EllMatrix<T>& a, std::span<const T> x,
                     std::span<T> y) {
  HPGMX_CHECK(static_cast<local_index_t>(x.size()) >= a.num_cols);
  HPGMX_CHECK(static_cast<local_index_t>(y.size()) >= a.num_rows);
  const local_index_t n = a.num_rows;
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
  const local_index_t nblocks =
      (n + detail::kEllBlockRows - 1) / detail::kEllBlockRows;
#pragma omp parallel for schedule(static)
  for (local_index_t blk = 0; blk < nblocks; ++blk) {
    const local_index_t r0 = blk * detail::kEllBlockRows;
    const local_index_t r1 = std::min(n, r0 + detail::kEllBlockRows);
    accum_t<T> acc[detail::kEllBlockRows];
    for (local_index_t r = r0; r < r1; ++r) {
      acc[r - r0] = accum_t<T>(0);
    }
    for (local_index_t s = 0; s < a.slots; ++s) {
      const std::size_t base = static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(n);
      const local_index_t* cols = ci + base + static_cast<std::size_t>(r0);
      for (local_index_t r = r0; r < r1; ++r) {
        acc[r - r0] += av[base + static_cast<std::size_t>(r)] *
                       xv[cols[r - r0]];
      }
    }
    for (local_index_t r = r0; r < r1; ++r) {
      yv[r] = acc[r - r0];
    }
  }
}

/// y = A x (ELL, slot-major). Blocked traversal: for each row block, slots
/// are visited outer so every load of values/col_idx is unit-stride. 16-bit
/// value types stream through the fp32 staging tiles (see file header); the
/// hardware types keep the scalar loop, whose loads already are full-width.
template <typename T>
void ell_spmv(const EllMatrix<T>& a, std::span<const T> x, std::span<T> y) {
  if constexpr (detail::is_16bit_value_v<T>) {
    HPGMX_CHECK(static_cast<local_index_t>(x.size()) >= a.num_cols);
    HPGMX_CHECK(static_cast<local_index_t>(y.size()) >= a.num_rows);
    const local_index_t n = a.num_rows;
    const T* __restrict xv = x.data();
    T* __restrict yv = y.data();
    const local_index_t nblocks =
        (n + detail::kEllBlockRows - 1) / detail::kEllBlockRows;
#pragma omp parallel for schedule(static)
    for (local_index_t blk = 0; blk < nblocks; ++blk) {
      const local_index_t r0 = blk * detail::kEllBlockRows;
      const std::size_t len =
          static_cast<std::size_t>(std::min(n, r0 + detail::kEllBlockRows) - r0);
      float acc[detail::kEllBlockRows] = {};
      detail::ell_block_accumulate_staged(a, xv, acc, r0, len);
      narrow_block(acc, yv + r0, len);
    }
  } else {
    ell_spmv_scalar(a, x, y);
  }
}

/// Scalar row-list ELL SpMV (see ell_spmv_scalar).
template <typename T>
void ell_spmv_rows_scalar(const EllMatrix<T>& a, std::span<const T> x,
                          std::span<T> y,
                          std::span<const local_index_t> rows) {
  const local_index_t n = a.num_rows;
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
  const std::size_t nk = rows.size();
  const std::size_t block = static_cast<std::size_t>(detail::kEllBlockRows);
  const std::size_t nblocks = (nk + block - 1) / block;
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t k0 = blk * block;
    const std::size_t k1 = std::min(nk, k0 + block);
    accum_t<T> acc[detail::kEllBlockRows];
    for (std::size_t k = k0; k < k1; ++k) {
      acc[k - k0] = accum_t<T>(0);
    }
    for (local_index_t s = 0; s < a.slots; ++s) {
      const std::size_t base =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(n);
      for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t at = base + static_cast<std::size_t>(rows[k]);
        acc[k - k0] += av[at] * xv[ci[at]];
      }
    }
    for (std::size_t k = k0; k < k1; ++k) {
      yv[rows[k]] = acc[k - k0];
    }
  }
}

/// y[r] = (A x)[r] for listed rows only (ELL). Blocked like ell_spmv: the
/// slot loop runs outside a block of list entries so the slot-major value
/// and column streams are walked in near-unit stride when the row list is
/// (nearly) sorted — which interior/boundary lists are. 16-bit types take
/// the staged path.
template <typename T>
void ell_spmv_rows(const EllMatrix<T>& a, std::span<const T> x, std::span<T> y,
                   std::span<const local_index_t> rows) {
  if constexpr (detail::is_16bit_value_v<T>) {
    const T* __restrict xv = x.data();
    T* __restrict yv = y.data();
    const std::size_t nk = rows.size();
    const std::size_t block = static_cast<std::size_t>(detail::kEllBlockRows);
    const std::size_t nblocks = (nk + block - 1) / block;
#pragma omp parallel for schedule(static)
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      const std::size_t k0 = blk * block;
      const std::size_t len = std::min(nk, k0 + block) - k0;
      float acc[detail::kEllBlockRows] = {};
      detail::ell_block_accumulate_staged_rows(a, xv, acc, rows.data() + k0,
                                               len);
      T ytile[detail::kEllBlockRows];
      narrow_block(acc, ytile, len);
      for (std::size_t k = 0; k < len; ++k) {
        yv[rows[k0 + k]] = ytile[k];
      }
    }
  } else {
    ell_spmv_rows_scalar(a, x, y, rows);
  }
}

/// Fused row-list ELL SpMV + partial ⟨y, x⟩ over those rows (the spmv_dot
/// solver kernel, optimized/overlap path: one call per interior/boundary
/// list). Returns the ordered per-block partial sum in double, computed
/// from the stored (rounded) y — bit-identical to ell_spmv_rows followed by
/// dot_rows_blocked(y, x, rows).
template <typename T>
[[nodiscard]] double ell_spmv_rows_dot(const EllMatrix<T>& a,
                                       std::span<const T> x, std::span<T> y,
                                       std::span<const local_index_t> rows) {
  const T* __restrict xv = x.data();
  T* __restrict yv = y.data();
  const std::size_t nk = rows.size();
  const std::size_t block = static_cast<std::size_t>(detail::kEllBlockRows);
  const std::size_t nblocks = (nk + block - 1) / block;
  AlignedVector<double> partial(nblocks, 0.0);
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t k0 = blk * block;
    const std::size_t len = std::min(nk, k0 + block) - k0;
    const local_index_t* __restrict rws = rows.data() + k0;
    double p = 0.0;
    if constexpr (detail::is_16bit_value_v<T>) {
      float acc[detail::kEllBlockRows] = {};
      detail::ell_block_accumulate_staged_rows(a, xv, acc, rws, len);
      T ytile[detail::kEllBlockRows];
      float ystage[detail::kEllBlockRows];
      float xostage[detail::kEllBlockRows];
      narrow_block(acc, ytile, len);
      widen_block(ytile, ystage, len);  // the rounded value the dot must see
      T xtile[detail::kEllBlockRows];
      for (std::size_t k = 0; k < len; ++k) {
        xtile[k] = xv[rws[k]];
      }
      widen_block(xtile, xostage, len);
      for (std::size_t k = 0; k < len; ++k) {
        yv[rws[k]] = ytile[k];
        p = std::fma(static_cast<double>(ystage[k]),
                     static_cast<double>(xostage[k]), p);
      }
    } else {
      const local_index_t* __restrict ci = a.col_idx.data();
      const T* __restrict av = a.values.data();
      accum_t<T> acc[detail::kEllBlockRows];
      for (std::size_t k = 0; k < len; ++k) {
        acc[k] = accum_t<T>(0);
      }
      for (local_index_t s = 0; s < a.slots; ++s) {
        const std::size_t base = static_cast<std::size_t>(s) *
                                 static_cast<std::size_t>(a.num_rows);
        for (std::size_t k = 0; k < len; ++k) {
          const std::size_t at = base + static_cast<std::size_t>(rws[k]);
          acc[k] += av[at] * xv[ci[at]];
        }
      }
      for (std::size_t k = 0; k < len; ++k) {
        const local_index_t r = rws[k];
        yv[r] = acc[k];
        p = std::fma(static_cast<double>(yv[r]),
                   static_cast<double>(xv[r]), p);
      }
    }
    partial[blk] = p;
  }
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

/// Subset variant of the fused kernel for overlap: only coarse points whose
/// fine row is in the given list are computed.
template <typename T>
void fused_restrict_residual_subset(const CsrMatrix<T>& a_fine,
                                    std::span<const T> b, std::span<const T> x,
                                    std::span<const local_index_t> c2f,
                                    std::span<T> rc,
                                    std::span<const local_index_t> coarse_ids) {
  const std::int64_t* __restrict rp = a_fine.row_ptr.data();
  const local_index_t* __restrict ci = a_fine.col_idx.data();
  const T* __restrict av = a_fine.values.data();
  const T* __restrict xv = x.data();
  const T* __restrict bv = b.data();
  T* __restrict rcv = rc.data();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < coarse_ids.size(); ++k) {
    const local_index_t i = coarse_ids[k];
    const local_index_t fr = c2f[static_cast<std::size_t>(i)];
    accum_t<T> acc = bv[fr];
    for (std::int64_t p = rp[fr]; p < rp[fr + 1]; ++p) {
      acc -= av[p] * xv[ci[p]];
    }
    rcv[i] = acc;
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
