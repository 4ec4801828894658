// Memory-traffic model: bytes each motif must move to/from main memory per
// execution, assuming streaming (no temporal reuse of matrix data, perfect
// reuse inside a row). Used for the roofline analysis (Fig. 8) and the
// machine-model projections (Figs. 4–6): a bandwidth-bound kernel's runtime
// is bytes / bandwidth, which is how halving the value width buys speed.
#pragma once

#include <cstddef>
#include <span>

#include "base/types.hpp"

namespace hpgmx {

// Runtime-format variants: `value_bytes` is the stored width of one value
// (PrecisionTraits<T>::bytes / precision_bytes(p)). These are what
// schedule-driven accounting calls, with one width per multigrid level; the
// templated wrappers below delegate here.

/// Column-index width of every sparse format (CSR and ELL both store
/// absolute 32-bit local columns).
inline constexpr std::size_t kIndexBytes32 = sizeof(local_index_t);

/// y = A x: matrix values + column indices once, x gathered (~n unique
/// entries), y written. `index_bytes` is the stored width of one column
/// index (DistOperator::ell_index_bytes()).
[[nodiscard]] constexpr double spmv_bytes(std::int64_t nnz, local_index_t n,
                                          std::size_t value_bytes,
                                          std::size_t index_bytes =
                                              kIndexBytes32) {
  return static_cast<double>(nnz) *
             (static_cast<double>(value_bytes) +
              static_cast<double>(index_bytes)) +
         2.0 * static_cast<double>(n) * static_cast<double>(value_bytes);
}

/// One GS relaxation sweep: like SpMV plus the diagonal array and the
/// read-modify-write of z.
[[nodiscard]] constexpr double gs_sweep_bytes(std::int64_t nnz, local_index_t n,
                                              std::size_t value_bytes) {
  return static_cast<double>(nnz) *
             (static_cast<double>(value_bytes) + kIndexBytes32) +
         4.0 * static_cast<double>(n) * static_cast<double>(value_bytes);
}

/// r = b − A x.
[[nodiscard]] constexpr double residual_bytes(std::int64_t nnz, local_index_t n,
                                              std::size_t value_bytes) {
  return static_cast<double>(nnz) *
             (static_cast<double>(value_bytes) + kIndexBytes32) +
         3.0 * static_cast<double>(n) * static_cast<double>(value_bytes);
}

/// Fused residual+restrict touching only the restricted fine rows. The
/// coarse store happens in the coarse level's format (`coarse_value_bytes`
/// — equal to `value_bytes` on a uniform hierarchy).
[[nodiscard]] constexpr double fused_restrict_bytes(
    std::int64_t nnz_sel, local_index_t n_fine, local_index_t n_coarse,
    std::size_t value_bytes, std::size_t coarse_value_bytes) {
  // CSR kernel + injection maps, both with 32-bit indices.
  return static_cast<double>(nnz_sel) *
             (static_cast<double>(value_bytes) + kIndexBytes32) +
         static_cast<double>(n_fine) *
             static_cast<double>(value_bytes) +  // gathered x
         static_cast<double>(n_coarse) *
             (static_cast<double>(value_bytes) +
              kIndexBytes32) +  // b at c2f + map
         static_cast<double>(n_coarse) *
             (static_cast<double>(coarse_value_bytes) +
              kIndexBytes32);  // rc store + map
}

/// Injection prolongation + correction: read the coarse correction and the
/// map, read-modify-write the fine correction at the mapped points.
[[nodiscard]] constexpr double prolong_bytes(local_index_t n_coarse,
                                             std::size_t fine_value_bytes,
                                             std::size_t coarse_value_bytes) {
  return static_cast<double>(n_coarse) *
         (static_cast<double>(coarse_value_bytes) + sizeof(local_index_t) +
          2.0 * static_cast<double>(fine_value_bytes));
}

/// y = A x: matrix values + column indices once, x gathered (~n unique
/// entries), y written.
template <typename T>
[[nodiscard]] constexpr double spmv_bytes(std::int64_t nnz, local_index_t n) {
  return spmv_bytes(nnz, n, PrecisionTraits<T>::bytes);
}

/// One GS relaxation sweep: like SpMV plus the diagonal array and the
/// read-modify-write of z.
template <typename T>
[[nodiscard]] constexpr double gs_sweep_bytes(std::int64_t nnz,
                                              local_index_t n) {
  return gs_sweep_bytes(nnz, n, PrecisionTraits<T>::bytes);
}

/// r = b − A x.
template <typename T>
[[nodiscard]] constexpr double residual_bytes(std::int64_t nnz,
                                              local_index_t n) {
  return residual_bytes(nnz, n, PrecisionTraits<T>::bytes);
}

/// Fused residual+restrict touching only the restricted fine rows.
template <typename T>
[[nodiscard]] constexpr double fused_restrict_bytes(std::int64_t nnz_sel,
                                                    local_index_t n_fine,
                                                    local_index_t n_coarse) {
  return fused_restrict_bytes(nnz_sel, n_fine, n_coarse,
                              PrecisionTraits<T>::bytes,
                              PrecisionTraits<T>::bytes);
}

/// Streaming dimensions of one multigrid level, the schedule-independent
/// half of the V-cycle traffic model (mirrors ProblemHierarchy).
struct MgLevelDims {
  std::int64_t nnz = 0;            ///< nonzeros of this level's operator
  local_index_t rows = 0;          ///< owned rows of this level
  std::int64_t nnz_coarse_rows = 0;///< nnz of rows selected by c2f (0 on coarsest)
  local_index_t coarse_rows = 0;   ///< next level's rows (0 on coarsest)
};

/// Main-memory bytes one V-cycle streams under a per-level value width:
/// pre/post (or coarse) GS sweeps on every level, plus the fused
/// restriction and the prolongation between adjacent levels, each charged
/// at its level's format. `value_bytes[l]` is the stored width at level l
/// (`value_bytes.size() == levels.size()`); with a uniform width this is
/// exactly the sum of the templated per-motif formulas.
[[nodiscard]] inline double mg_vcycle_bytes(
    std::span<const MgLevelDims> levels,
    std::span<const std::size_t> value_bytes, int pre_sweeps, int post_sweeps,
    int coarse_sweeps) {
  double total = 0.0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const MgLevelDims& d = levels[l];
    const bool coarsest = (l + 1 == levels.size());
    const int sweeps =
        coarsest ? coarse_sweeps : pre_sweeps + post_sweeps;
    total += sweeps * gs_sweep_bytes(d.nnz, d.rows, value_bytes[l]);
    if (!coarsest) {
      total += fused_restrict_bytes(d.nnz_coarse_rows, d.rows, d.coarse_rows,
                                    value_bytes[l], value_bytes[l + 1]);
      total += prolong_bytes(d.coarse_rows, value_bytes[l], value_bytes[l + 1]);
    }
  }
  return total;
}

/// Main-memory bytes one inner GMRES-IR Arnoldi step streams under a
/// per-level value width: the fine-level SpMV (levels[0], at the fine
/// format) plus one V-cycle of the preconditioner.
/// Multiplying by a realized per-cycle iteration count (CycleRecord) is how
/// the adaptive controller's runs are charged against static schedules —
/// same formula, per-cycle widths instead of one static set.
[[nodiscard]] inline double ir_inner_iteration_bytes(
    std::span<const MgLevelDims> levels,
    std::span<const std::size_t> value_bytes, int pre_sweeps, int post_sweeps,
    int coarse_sweeps) {
  return spmv_bytes(levels[0].nnz, levels[0].rows, value_bytes[0]) +
         mg_vcycle_bytes(levels, value_bytes, pre_sweeps, post_sweeps,
                         coarse_sweeps);
}

/// Network bytes one halo exchange moves, both directions: every boundary
/// entry sent plus every halo entry received, at the exchanged value width.
/// `send_entries` is HaloPattern::total_send_count(), `recv_entries` is
/// HaloPattern::n_halo, so the prediction equals
/// HaloExchange<T>::bytes_per_exchange() exactly — the invariant the
/// RecordingComm tests pin down for fp64 and the 2-byte formats.
[[nodiscard]] constexpr double halo_exchange_bytes(std::int64_t send_entries,
                                                   std::int64_t recv_entries,
                                                   std::size_t value_bytes) {
  return static_cast<double>(send_entries + recv_entries) *
         static_cast<double>(value_bytes);
}

/// CGS2 step k: four passes over Q[:, :k] plus the vector w.
template <typename T>
[[nodiscard]] constexpr double cgs2_bytes(local_index_t n, int k) {
  return 4.0 * static_cast<double>(n) * k * PrecisionTraits<T>::bytes +
         6.0 * static_cast<double>(n) * PrecisionTraits<T>::bytes;
}

template <typename T>
[[nodiscard]] constexpr double dot_bytes(local_index_t n) {
  return 2.0 * static_cast<double>(n) * PrecisionTraits<T>::bytes;
}

template <typename T>
[[nodiscard]] constexpr double waxpby_bytes(local_index_t n) {
  return 3.0 * static_cast<double>(n) * PrecisionTraits<T>::bytes;
}

// Fused solver passes: the reduction rides on data the producing kernel
// already holds in registers, so the fused pass costs exactly the producing
// kernel's traffic. What the fusion *saves* is the separate reduction sweep
// a two-pass sequence would pay (dot_bytes for spmv_dot's ⟨Av,v⟩ and
// waxpby_norm's / residual_norm2's ‖·‖²).

/// w = A·v with ⟨w,v⟩ folded in: SpMV traffic only.
[[nodiscard]] constexpr double spmv_dot_bytes(std::int64_t nnz, local_index_t n,
                                              std::size_t value_bytes) {
  return spmv_bytes(nnz, n, value_bytes);
}

/// w = αx + βy with ‖w‖² folded in: WAXPBY traffic only.
[[nodiscard]] constexpr double waxpby_norm_bytes(local_index_t n,
                                                 std::size_t value_bytes) {
  return 3.0 * static_cast<double>(n) * static_cast<double>(value_bytes);
}

/// r = b − Ax with ‖r‖² folded in: residual traffic only.
[[nodiscard]] constexpr double residual_norm_bytes(std::int64_t nnz,
                                                   local_index_t n,
                                                   std::size_t value_bytes) {
  return residual_bytes(nnz, n, value_bytes);
}

/// CGS2 projection update w ← w − Q[:,1:k] h: k basis-vector streams read
/// once plus the read-modify-write of w.
[[nodiscard]] constexpr double gemv_n_sub_bytes(local_index_t n, int k,
                                                std::size_t value_bytes) {
  return (static_cast<double>(k) + 2.0) * static_cast<double>(n) *
         static_cast<double>(value_bytes);
}

/// w ← w − Q h with ‖w‖² folded into the same sweep (the CGS2
/// normalization-norm fusion): projection traffic only — the separate norm
/// sweep (dot_bytes) is what the fusion saves.
[[nodiscard]] constexpr double gemv_n_norm_bytes(local_index_t n, int k,
                                                 std::size_t value_bytes) {
  return gemv_n_sub_bytes(n, k, value_bytes);
}

template <typename T>
[[nodiscard]] constexpr double spmv_dot_bytes(std::int64_t nnz,
                                              local_index_t n) {
  return spmv_dot_bytes(nnz, n, PrecisionTraits<T>::bytes);
}

template <typename T>
[[nodiscard]] constexpr double waxpby_norm_bytes(local_index_t n) {
  // Identical to the plain WAXPBY by design — the fused norm is free.
  return waxpby_bytes<T>(n);
}

template <typename T>
[[nodiscard]] constexpr double residual_norm_bytes(std::int64_t nnz,
                                                   local_index_t n) {
  return residual_norm_bytes(nnz, n, PrecisionTraits<T>::bytes);
}

}  // namespace hpgmx
