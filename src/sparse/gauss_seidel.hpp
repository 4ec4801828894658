// Gauss–Seidel smoother kernels.
//
// Two implementations, mirroring the paper:
//
// * Reference (§3.1 issues 1–2): forward GS as an upper-triangle SpMV
//   followed by a level-scheduled lower SpTRSV — arithmetic identical to the
//   sequential lexicographic sweep but two passes over the matrix.
// * Optimized (§3.2.1): "relaxation" form, one fused sweep over the matrix,
//   processed color-by-color over an independent-set (JPL) partition; rows
//   of a color touch no common unknown and run fully parallel. The ELL
//   sweep is one blocked row-list kernel (gs_sweep_rows_ell) built on the
//   accumulate helper the ELL SpMV uses (kernels.hpp), so 16-bit formats
//   take the same widen-to-fp32 tiles there as in the SpMV.
//
// The CSR colored sweeps (gs_sweep_colored, gs_sweep_colored_backward) are
// the promote-through-float references the ELL kernel is tested against;
// the backward one is also the second half of CG's symmetric smoother.
//
// Distributed semantics: halo entries of z hold neighbor values exchanged
// before the sweep; they act as frozen (block-Jacobi) boundary values, as in
// HPCG/rocHPCG.
#pragma once

#include <algorithm>
#include <span>

#include "base/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/kernels.hpp"
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

}  // namespace detail

/// Relaxation sweep over one row subset (CSR; rows must form an
/// independent set, e.g. one color), rows in parallel.
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

/// One forward multicolor GS sweep (CSR): colors processed in ascending
/// order, rows within a color in parallel. Equivalent to sequential GS in
/// the color-sorted row ordering.
template <typename T>
void gs_sweep_colored(const CsrMatrix<T>& a, const RowPartition& colors,
                      std::span<const T> r, std::span<T> z) {
  for (int c = 0; c < colors.num_groups(); ++c) {
    gs_sweep_rows(a, colors.group(c), r, z);
  }
}

/// One *backward* multicolor sweep (colors in descending order): combined
/// with a forward sweep this forms the symmetric GS smoother used by the
/// HPCG baseline (CG) implementation.
template <typename T>
void gs_sweep_colored_backward(const CsrMatrix<T>& a,
                               const RowPartition& colors,
                               std::span<const T> r, std::span<T> z) {
  for (int c = colors.num_groups() - 1; c >= 0; --c) {
    gs_sweep_rows(a, colors.group(c), r, z);
  }
}

/// ELL relaxation sweep over a sorted row subset that forms an independent
/// set (one color, or its interior/boundary part): per block, z_new =
/// (r − Σ_s a_s·z + d·z_old) / d — the diagonal term is subtracted with the
/// rest and added back, so the slot loop needs no branch.
template <typename T>
void gs_sweep_rows_ell(const EllMatrix<T>& a,
                       std::span<const local_index_t> rows,
                       std::span<const T> r, std::span<T> z) {
  const T* __restrict rv = r.data();
  T* __restrict zv = z.data();
  detail::for_each_row_block(
      rows, [&](std::size_t, const local_index_t* rws, std::size_t len) {
        accum_t<T> acc[detail::kEllBlockRows];
        accum_t<T> d[detail::kEllBlockRows];
        accum_t<T> z_old[detail::kEllBlockRows];
        detail::gather_widen(rv, rws, len, acc);
        detail::ell_rows_accumulate<true>(a, zv, rws, len, acc);
        detail::gather_widen(a.diag.data(), rws, len, d);
        detail::gather_widen(zv, rws, len, z_old);
#pragma omp simd
        for (std::size_t k = 0; k < len; ++k) {
          acc[k] = (acc[k] + d[k] * z_old[k]) / d[k];
        }
        detail::narrow_scatter(acc, rws, len, zv);
      });
}

/// One forward multicolor GS sweep (ELL), colors in ascending order.
template <typename T>
void gs_sweep_colored_ell(const EllMatrix<T>& a, const RowPartition& colors,
                          std::span<const T> r, std::span<T> z) {
  for (int c = 0; c < colors.num_groups(); ++c) {
    gs_sweep_rows_ell(a, colors.group(c), r, z);
  }
}

}  // namespace hpgmx
