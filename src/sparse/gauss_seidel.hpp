// Gauss–Seidel smoother kernels.
//
// Two implementations, mirroring the paper:
//
// * Reference (§3.1 issues 1–2): forward GS as an upper-triangle SpMV
//   followed by a level-scheduled lower SpTRSV — arithmetic identical to the
//   sequential lexicographic sweep but two passes over the matrix.
// * Optimized (§3.2.1): "relaxation" form, one fused sweep over the matrix,
//   processed color-by-color over an independent-set (JPL) partition; rows
//   of a color touch no common unknown and run fully parallel.
//
// Distributed semantics: halo entries of z hold neighbor values exchanged
// before the sweep; they act as frozen (block-Jacobi) boundary values, as in
// HPCG/rocHPCG.
#pragma once

#include <algorithm>
#include <span>

#include "base/types.hpp"
#include "precision/convert_batch.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/row_partition.hpp"
#include "sparse/sptrsv.hpp"

namespace hpgmx {

/// One *exact* sequential forward Gauss–Seidel sweep in natural order
/// (testing oracle; also the smallest-problem fallback).
template <typename T>
void gs_sweep_sequential(const CsrMatrix<T>& a, std::span<const T> r,
                         std::span<T> z) {
  for (local_index_t row = 0; row < a.num_rows; ++row) {
    accum_t<T> acc = r[static_cast<std::size_t>(row)];
    const auto cols = a.row_cols(row);
    const auto vals = a.row_vals(row);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      if (cols[p] != row) {
        acc -= vals[p] * z[static_cast<std::size_t>(cols[p])];
      }
    }
    z[static_cast<std::size_t>(row)] = acc / a.diag[static_cast<std::size_t>(row)];
  }
}

/// Reference forward GS sweep: t = r − U z (one SpMV-like pass, where U is
/// everything right of the diagonal including halo columns), then the
/// level-scheduled solve (D+L) z = t. `t` is caller-provided scratch of
/// num_rows entries.
template <typename T>
void gs_sweep_reference(const CsrMatrix<T>& a, const RowPartition& levels,
                        std::span<const T> r, std::span<T> z,
                        std::span<T> t) {
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict rv = r.data();
  const T* __restrict zv = z.data();
  T* __restrict tv = t.data();
#pragma omp parallel for schedule(static)
  for (local_index_t row = 0; row < a.num_rows; ++row) {
    accum_t<T> acc = rv[row];
    for (std::int64_t p = rp[row]; p < rp[row + 1]; ++p) {
      const local_index_t c = ci[p];
      if (c > row) {  // strict upper; halo columns satisfy c >= num_rows > row
        acc -= av[p] * zv[c];
      }
    }
    tv[row] = acc;
  }
  sptrsv_lower_levels(a, levels, std::span<const T>(t.data(), t.size()), z);
}

namespace detail {

/// Relaxation update of one row: new z[row] from current z values.
/// The diagonal term is subtracted with the rest and added back, avoiding a
/// per-entry branch in the hot loop.
template <typename T>
inline T gs_row_update(const std::int64_t* rp, const local_index_t* ci,
                       const T* av, const T* dv, const T* rv, const T* zv,
                       local_index_t row) {
  accum_t<T> acc = rv[row];
  for (std::int64_t p = rp[row]; p < rp[row + 1]; ++p) {
    acc -= av[p] * zv[ci[p]];
  }
  return (acc + dv[row] * zv[row]) / dv[row];
}

template <typename T>
inline T gs_row_update_ell(const local_index_t n, const local_index_t slots,
                           const local_index_t* ci, const T* av, const T* dv,
                           const T* rv, const T* zv, local_index_t row) {
  accum_t<T> acc = rv[row];
  for (local_index_t s = 0; s < slots; ++s) {
    const std::size_t at =
        static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(row);
    acc -= av[at] * zv[ci[at]];
  }
  return (acc + dv[row] * zv[row]) / dv[row];
}

/// Row-list block size for ELL sweeps; the accumulator block lives in L1
/// while the slot loop streams values/columns near-unit-stride (the rows of
/// one color are sorted).
inline constexpr std::size_t kGsBlockRows = 1024;

/// Scalar blocked relaxation update over a sorted row list (one independent
/// set or a subset of it): slot loop outside the block so the slot-major
/// arrays stream instead of striding by num_rows per row. This is the
/// ablation baseline for the staged 16-bit path below (and the production
/// kernel for the hardware types).
template <typename T>
void gs_update_rows_ell_blocked_scalar(const EllMatrix<T>& a,
                                       const T* __restrict rv,
                                       T* __restrict zv,
                                       std::span<const local_index_t> rows) {
  const local_index_t n = a.num_rows;
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict dv = a.diag.data();
  const std::size_t nk = rows.size();
  const std::size_t nblocks = (nk + kGsBlockRows - 1) / kGsBlockRows;
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t k0 = blk * kGsBlockRows;
    const std::size_t k1 = std::min(nk, k0 + kGsBlockRows);
    accum_t<T> acc[kGsBlockRows];
    for (std::size_t k = k0; k < k1; ++k) {
      acc[k - k0] = rv[rows[k]];
    }
    for (local_index_t s = 0; s < a.slots; ++s) {
      const std::size_t base =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(n);
      for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t at = base + static_cast<std::size_t>(rows[k]);
        acc[k - k0] -= av[at] * zv[ci[at]];
      }
    }
    for (std::size_t k = k0; k < k1; ++k) {
      const local_index_t row = rows[k];
      zv[row] = (acc[k - k0] + dv[row] * zv[row]) / dv[row];
    }
  }
}

/// Staged 16-bit relaxation update: per slot, gather the value/solution
/// tiles through the row list, widen them into fp32 staging buffers with
/// the batched primitives (convert_batch.hpp), and FMA at unit stride —
/// the scalar loop converts every operand individually inside the hot loop
/// and never vectorizes. The final diagonal solve runs on widened tiles
/// too, with one batched narrow on the store.
template <typename T>
void gs_update_rows_ell_staged16(const EllMatrix<T>& a,
                                 const T* __restrict rv, T* __restrict zv,
                                 std::span<const local_index_t> rows) {
  static_assert(is_16bit_value_v<T>);
  const local_index_t n = a.num_rows;
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict dv = a.diag.data();
  const std::size_t nk = rows.size();
  const std::size_t nblocks = (nk + kGsBlockRows - 1) / kGsBlockRows;
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t k0 = blk * kGsBlockRows;
    const std::size_t len = std::min(nk, k0 + kGsBlockRows) - k0;
    const local_index_t* __restrict rws = rows.data() + k0;
    float acc[kGsBlockRows];
    float vstage[kGsBlockRows];
    float zstage[kGsBlockRows];
    T vtile[kGsBlockRows];
    T ztile[kGsBlockRows];
    for (std::size_t k = 0; k < len; ++k) {
      ztile[k] = rv[rws[k]];
    }
    widen_block(ztile, acc, len);
    for (local_index_t s = 0; s < a.slots; ++s) {
      const std::size_t base =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(n);
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t at = base + static_cast<std::size_t>(rws[k]);
        vtile[k] = av[at];
        ztile[k] = zv[ci[at]];
      }
      widen_block(vtile, vstage, len);
      widen_block(ztile, zstage, len);
#pragma omp simd
      for (std::size_t k = 0; k < len; ++k) {
        acc[k] -= vstage[k] * zstage[k];
      }
    }
    // (acc + d·z_old) / d on widened diagonal/solution tiles, narrowed once.
    for (std::size_t k = 0; k < len; ++k) {
      vtile[k] = dv[rws[k]];
      ztile[k] = zv[rws[k]];
    }
    widen_block(vtile, vstage, len);
    widen_block(ztile, zstage, len);
#pragma omp simd
    for (std::size_t k = 0; k < len; ++k) {
      acc[k] = (acc[k] + vstage[k] * zstage[k]) / vstage[k];
    }
    narrow_block(acc, ztile, len);
    for (std::size_t k = 0; k < len; ++k) {
      zv[rws[k]] = ztile[k];
    }
  }
}

/// Blocked relaxation update over a sorted row list, dispatching 16-bit
/// value types to the staged path.
template <typename T>
void gs_update_rows_ell_blocked(const EllMatrix<T>& a, const T* __restrict rv,
                                T* __restrict zv,
                                std::span<const local_index_t> rows) {
  if constexpr (is_16bit_value_v<T>) {
    gs_update_rows_ell_staged16(a, rv, zv, rows);
  } else {
    gs_update_rows_ell_blocked_scalar(a, rv, zv, rows);
  }
}

}  // namespace detail

/// One forward multicolor GS sweep (CSR): colors processed in ascending
/// order, rows within a color in parallel. Equivalent to sequential GS in
/// the color-sorted row ordering.
template <typename T>
void gs_sweep_colored(const CsrMatrix<T>& a, const RowPartition& colors,
                      std::span<const T> r, std::span<T> z) {
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict dv = a.diag.data();
  const T* __restrict rv = r.data();
  T* __restrict zv = z.data();
  for (int c = 0; c < colors.num_groups(); ++c) {
    const auto rows = colors.group(c);
#pragma omp parallel for schedule(static)
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const local_index_t row = rows[k];
      zv[row] = detail::gs_row_update(rp, ci, av, dv, rv, zv, row);
    }
  }
}

/// Colored sweep over a single row subset (one color's interior or boundary
/// rows) — building block of the overlapped distributed sweep.
template <typename T>
void gs_sweep_rows(const CsrMatrix<T>& a, std::span<const local_index_t> rows,
                   std::span<const T> r, std::span<T> z) {
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict dv = a.diag.data();
  const T* __restrict rv = r.data();
  T* __restrict zv = z.data();
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const local_index_t row = rows[k];
    zv[row] = detail::gs_row_update(rp, ci, av, dv, rv, zv, row);
  }
}

/// One forward multicolor GS sweep (ELL), blocked per color. 16-bit value
/// types take the staged (widen-once, FMA-at-unit-stride) path.
template <typename T>
void gs_sweep_colored_ell(const EllMatrix<T>& a, const RowPartition& colors,
                          std::span<const T> r, std::span<T> z) {
  for (int c = 0; c < colors.num_groups(); ++c) {
    detail::gs_update_rows_ell_blocked(a, r.data(), z.data(),
                                       colors.group(c));
  }
}

/// Scalar-path colored ELL sweep (promote-through-float per element) — the
/// ablation baseline micro_kernels measures the staged 16-bit sweep against.
template <typename T>
void gs_sweep_colored_ell_scalar(const EllMatrix<T>& a,
                                 const RowPartition& colors,
                                 std::span<const T> r, std::span<T> z) {
  for (int c = 0; c < colors.num_groups(); ++c) {
    detail::gs_update_rows_ell_blocked_scalar(a, r.data(), z.data(),
                                              colors.group(c));
  }
}

/// ELL row-subset sweep (rows must form an independent set).
template <typename T>
void gs_sweep_rows_ell(const EllMatrix<T>& a,
                       std::span<const local_index_t> rows,
                       std::span<const T> r, std::span<T> z) {
  detail::gs_update_rows_ell_blocked(a, r.data(), z.data(), rows);
}

/// One *backward* multicolor sweep (colors in descending order): combined
/// with a forward sweep this forms the symmetric GS smoother used by the
/// HPCG baseline (CG) implementation.
template <typename T>
void gs_sweep_colored_backward(const CsrMatrix<T>& a,
                               const RowPartition& colors,
                               std::span<const T> r, std::span<T> z) {
  const std::int64_t* __restrict rp = a.row_ptr.data();
  const local_index_t* __restrict ci = a.col_idx.data();
  const T* __restrict av = a.values.data();
  const T* __restrict dv = a.diag.data();
  const T* __restrict rv = r.data();
  T* __restrict zv = z.data();
  for (int c = colors.num_groups() - 1; c >= 0; --c) {
    const auto rows = colors.group(c);
#pragma omp parallel for schedule(static)
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const local_index_t row = rows[k];
      zv[row] = detail::gs_row_update(rp, ci, av, dv, rv, zv, row);
    }
  }
}

}  // namespace hpgmx
