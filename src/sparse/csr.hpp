// Compressed Sparse Row storage — the format of the reference HPG-MxP
// implementation (paper §3.1 issue 5) and the assembly format of the
// problem generator.
//
// Column indexing convention for distributed matrices: columns
// [0, num_owned_cols) are this rank's owned entries (row r's diagonal is
// column r), columns [num_owned_cols, num_cols) address the halo region of
// the companion vector.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "base/aligned_vector.hpp"
#include "base/error.hpp"
#include "base/types.hpp"
#include "precision/convert_batch.hpp"

namespace hpgmx {

template <typename T>
struct CsrMatrix {
  static_assert(is_supported_value_v<T>);

  local_index_t num_rows = 0;
  /// Total column count: owned + halo columns.
  local_index_t num_cols = 0;
  /// Columns < num_owned_cols are owned (diagonal block); the rest are halo.
  local_index_t num_owned_cols = 0;

  AlignedVector<std::int64_t> row_ptr;  // size num_rows + 1
  AlignedVector<local_index_t> col_idx;
  AlignedVector<T> values;

  /// Diagonal values cached for relaxation kernels (filled by
  /// finalize_structure).
  AlignedVector<T> diag;
  /// Position of the diagonal entry within each row's value range.
  AlignedVector<std::int64_t> diag_pos;

  [[nodiscard]] std::int64_t nnz() const {
    return row_ptr.empty() ? 0 : row_ptr.back();
  }

  [[nodiscard]] std::span<const local_index_t> row_cols(
      local_index_t r) const {
    const auto b = static_cast<std::size_t>(row_ptr[r]);
    const auto e = static_cast<std::size_t>(row_ptr[r + 1]);
    return {col_idx.data() + b, e - b};
  }

  [[nodiscard]] std::span<const T> row_vals(local_index_t r) const {
    const auto b = static_cast<std::size_t>(row_ptr[r]);
    const auto e = static_cast<std::size_t>(row_ptr[r + 1]);
    return {values.data() + b, e - b};
  }

  /// Locate diagonals and cache them; validates that every row has one.
  void finalize_structure() {
    HPGMX_CHECK(static_cast<local_index_t>(row_ptr.size()) == num_rows + 1);
    diag.assign(static_cast<std::size_t>(num_rows), T(0));
    diag_pos.assign(static_cast<std::size_t>(num_rows), -1);
    for (local_index_t r = 0; r < num_rows; ++r) {
      for (std::int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        if (col_idx[static_cast<std::size_t>(p)] == r) {
          diag[static_cast<std::size_t>(r)] =
              values[static_cast<std::size_t>(p)];
          diag_pos[static_cast<std::size_t>(r)] = p;
          break;
        }
      }
      HPGMX_CHECK_MSG(diag_pos[static_cast<std::size_t>(r)] >= 0,
                      "row " << r << " has no diagonal entry");
    }
  }

  /// Deep-convert values to another precision (structure shared by copy).
  /// `value_scale` is applied in the source precision before demotion — the
  /// ScaleGuard's equilibration hook for narrow-exponent targets; the
  /// default 1.0 reproduces a plain conversion bit for bit and streams
  /// through the batched block primitives (convert_batch.hpp).
  template <typename U>
  [[nodiscard]] CsrMatrix<U> convert(double value_scale = 1.0) const {
    CsrMatrix<U> out;
    out.num_rows = num_rows;
    out.num_cols = num_cols;
    out.num_owned_cols = num_owned_cols;
    out.row_ptr = row_ptr;
    out.col_idx = col_idx;
    out.values.resize(values.size());
    out.diag.resize(diag.size());
    if (value_scale == 1.0) {
      convert_span(std::span<const T>(values.data(), values.size()),
                   std::span<U>(out.values.data(), out.values.size()));
      convert_span(std::span<const T>(diag.data(), diag.size()),
                   std::span<U>(out.diag.data(), out.diag.size()));
    } else {
      for (std::size_t i = 0; i < values.size(); ++i) {
        out.values[i] =
            static_cast<U>(static_cast<double>(values[i]) * value_scale);
      }
      for (std::size_t i = 0; i < diag.size(); ++i) {
        out.diag[i] =
            static_cast<U>(static_cast<double>(diag[i]) * value_scale);
      }
    }
    out.diag_pos = diag_pos;
    return out;
  }
};

/// Incremental CSR assembly: rows appended in order.
template <typename T>
class CsrBuilder {
 public:
  CsrBuilder(local_index_t num_rows, local_index_t num_cols,
             local_index_t num_owned_cols, std::int64_t nnz_reserve = 0) {
    m_.num_rows = num_rows;
    m_.num_cols = num_cols;
    m_.num_owned_cols = num_owned_cols;
    m_.row_ptr.reserve(static_cast<std::size_t>(num_rows) + 1);
    m_.row_ptr.push_back(0);
    if (nnz_reserve > 0) {
      m_.col_idx.reserve(static_cast<std::size_t>(nnz_reserve));
      m_.values.reserve(static_cast<std::size_t>(nnz_reserve));
    }
  }

  /// Append one entry to the row currently being assembled.
  void push(local_index_t col, T value) {
    HPGMX_CHECK_MSG(col >= 0 && col < m_.num_cols,
                    "column " << col << " out of range " << m_.num_cols);
    m_.col_idx.push_back(col);
    m_.values.push_back(value);
  }

  /// Close the current row.
  void finish_row() {
    m_.row_ptr.push_back(static_cast<std::int64_t>(m_.col_idx.size()));
  }

  /// Finish assembly; the builder is consumed.
  [[nodiscard]] CsrMatrix<T> build() {
    HPGMX_CHECK_MSG(
        static_cast<local_index_t>(m_.row_ptr.size()) == m_.num_rows + 1,
        "build() before all rows were finished");
    m_.finalize_structure();
    return std::move(m_);
  }

 private:
  CsrMatrix<T> m_;
};

}  // namespace hpgmx
