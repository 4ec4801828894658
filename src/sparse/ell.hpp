// ELLPACK (ELL) sparse storage — the optimized format of paper §3.2.2.
//
// Layout is structure-of-arrays, *slot-major*: slot s of row r lives at
// index s * num_rows + r. Iterating rows for a fixed slot is unit-stride,
// which keeps wide SIMD/warp lanes fully coalesced for stencil matrices
// whose row lengths are nearly uniform (27 ± boundary effects here).
// Padded slots carry the row's own index with value 0 so gather loads stay
// in-bounds without branches.
#pragma once

#include <algorithm>

#include "base/aligned_vector.hpp"
#include "base/error.hpp"
#include "base/types.hpp"
#include "precision/convert_batch.hpp"
#include "sparse/csr.hpp"

namespace hpgmx {

template <typename T>
struct EllMatrix {
  static_assert(is_supported_value_v<T>);

  local_index_t num_rows = 0;
  local_index_t num_cols = 0;
  local_index_t num_owned_cols = 0;
  /// Max entries per row (padded width).
  local_index_t slots = 0;

  /// Slot-major: entry (r, s) at [s * num_rows + r]. Absolute 32-bit local
  /// columns: the only index layout the kernels stream.
  AlignedVector<local_index_t> col_idx;
  AlignedVector<T> values;
  AlignedVector<T> diag;

  [[nodiscard]] std::size_t slot_index(local_index_t row,
                                       local_index_t slot) const {
    return static_cast<std::size_t>(slot) *
               static_cast<std::size_t>(num_rows) +
           static_cast<std::size_t>(row);
  }

  /// Stored entries including padding.
  [[nodiscard]] std::int64_t padded_nnz() const {
    return static_cast<std::int64_t>(slots) * num_rows;
  }

  /// Deep-convert values to another precision through the batched block
  /// primitives (convert_batch.hpp) — one SIMD streaming pass instead of a
  /// per-element static_cast loop, bit-identical to it.
  template <typename U>
  [[nodiscard]] EllMatrix<U> convert() const {
    EllMatrix<U> out;
    out.num_rows = num_rows;
    out.num_cols = num_cols;
    out.num_owned_cols = num_owned_cols;
    out.slots = slots;
    out.col_idx = col_idx;
    out.values.resize(values.size());
    convert_span(std::span<const T>(values.data(), values.size()),
                 std::span<U>(out.values.data(), out.values.size()));
    out.diag.resize(diag.size());
    convert_span(std::span<const T>(diag.data(), diag.size()),
                 std::span<U>(out.diag.data(), out.diag.size()));
    return out;
  }
};

/// Convert CSR → ELL. Padding slots reference the row itself with value 0,
/// so products read x[r] and add 0 — harmless and branch-free.
template <typename T>
[[nodiscard]] EllMatrix<T> ell_from_csr(const CsrMatrix<T>& a) {
  EllMatrix<T> e;
  e.num_rows = a.num_rows;
  e.num_cols = a.num_cols;
  e.num_owned_cols = a.num_owned_cols;
  local_index_t width = 0;
  for (local_index_t r = 0; r < a.num_rows; ++r) {
    width = std::max(
        width, static_cast<local_index_t>(a.row_ptr[r + 1] - a.row_ptr[r]));
  }
  e.slots = width;
  const std::size_t total = static_cast<std::size_t>(width) *
                            static_cast<std::size_t>(a.num_rows);
  e.col_idx.assign(total, 0);
  e.values.assign(total, T(0));
  for (local_index_t r = 0; r < a.num_rows; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (local_index_t s = 0; s < width; ++s) {
      const std::size_t at = e.slot_index(r, s);
      if (static_cast<std::size_t>(s) < cols.size()) {
        e.col_idx[at] = cols[static_cast<std::size_t>(s)];
        e.values[at] = vals[static_cast<std::size_t>(s)];
      } else {
        e.col_idx[at] = r;  // pad: in-bounds self reference
        e.values[at] = T(0);
      }
    }
  }
  e.diag = a.diag;
  return e;
}

}  // namespace hpgmx
