// One distributed sparse operator (one multigrid level): matrix in both
// formats, halo machinery, color/level-schedule orderings, and the
// interior/boundary row split that drives compute–communication overlap.
//
// Every public operation has two runtime paths selected by OptLevel:
//
//   Reference  — CSR SpMV, two-kernel level-scheduled Gauss–Seidel,
//                blocking halo exchange before each kernel (paper §3.1);
//   Optimized  — ELL SpMV, one-sweep multicolor GS, fused restriction, and
//                split-phase halo exchange hidden behind interior rows
//                (paper §3.2).
//
// FLOP accounting uses the model in flops.hpp identically on both paths.
#pragma once

#include <utility>

#include "base/aligned_vector.hpp"
#include "base/event_sink.hpp"
#include "base/epoch.hpp"
#include "base/types.hpp"
#include "blas/vector_ops.hpp"
#include "coloring/coloring.hpp"
#include "comm/halo.hpp"
#include "core/flops.hpp"
#include "core/params.hpp"
#include "grid/problem.hpp"
#include "perf/motifs.hpp"
#include "sparse/gauss_seidel.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sptrsv.hpp"

namespace hpgmx {

/// Orderings and row splits shared by all precisions of one level.
struct OperatorStructure {
  HaloPattern halo;
  RowPartition colors;           ///< all rows grouped by color
  RowPartition colors_interior;  ///< per color: rows with no halo columns
  RowPartition colors_boundary;  ///< per color: rows reading halo columns
  RowPartition level_schedule;   ///< reference-path SpTRSV levels
  AlignedVector<local_index_t> interior_rows;  ///< all interior rows
  AlignedVector<local_index_t> boundary_rows;  ///< all boundary rows
  int num_colors = 0;
};

/// How to find the independent sets for the multicolor smoother.
enum class ColoringMode {
  Geometric,  ///< parity 8-coloring — exact for the 27-pt stencil (default)
  Jpl,        ///< Jones–Plassmann–Luby with hash weights (general graphs)
  Greedy,     ///< sequential first-fit (oracle/baseline)
};

/// Build orderings from a generated problem.
OperatorStructure build_structure(const Problem& prob, std::uint64_t seed,
                                  ColoringMode mode = ColoringMode::Geometric);

template <typename T>
class DistOperator {
 public:
  /// `tag` namespaces this level's halo traffic; `a` and `structure` must
  /// outlive the operator (`a` is retained as the re-demotion source for
  /// set_value_scale; `structure` is shared between the double and float
  /// instantiations). `value_scale` (a ScaleGuard's power-of-two α) scales
  /// values before demotion so narrow-exponent formats are not overflowed
  /// by a badly scaled matrix; 1.0 reproduces the plain conversion exactly.
  DistOperator(const CsrMatrix<double>& a, const OperatorStructure* structure,
               OptLevel opt, int tag, double value_scale = 1.0)
      : source_(&a),
        value_scale_(value_scale),
        csr_(a.convert<T>(value_scale)),
        ell_(ell_from_csr(csr_)),
        structure_(structure),
        opt_(opt),
        halo_exchange_(&structure->halo, tag) {}

  // Not copyable (HaloExchange holds per-instance buffers); movable.
  DistOperator(DistOperator&&) noexcept = default;
  DistOperator& operator=(DistOperator&&) noexcept = default;

  [[nodiscard]] local_index_t num_owned() const { return csr_.num_rows; }
  [[nodiscard]] local_index_t vec_len() const { return csr_.num_cols; }
  [[nodiscard]] std::int64_t nnz() const { return csr_.nnz(); }
  [[nodiscard]] const CsrMatrix<T>& csr() const { return csr_; }
  [[nodiscard]] const EllMatrix<T>& ell() const { return ell_; }
  [[nodiscard]] const OperatorStructure& structure() const {
    return *structure_;
  }
  [[nodiscard]] OptLevel opt_level() const { return opt_; }

  void set_stats(MotifStats* stats) { stats_ = stats; }
  void set_event_sink(EventSink* sink) { sink_ = sink; }

  /// Attach (non-null) or detach (null) the SDC monitor: this level's halo
  /// messages carry verified additive checksums while attached (see
  /// HaloExchange::set_sdc_monitor for the cost and bit-identity contract).
  void set_sdc_monitor(SdcMonitor* monitor) {
    halo_exchange_.set_sdc_monitor(monitor);
  }

  /// Re-demote the stored matrix from its pristine double source at the
  /// current value_scale(), unconditionally. set_value_scale() no-ops when
  /// the scale is unchanged, so SDC rollback calls this to repair possibly
  /// corrupted low-precision values even when the checkpointed ScaleGuard
  /// scale equals the live one.
  void redemote() {
    csr_ = source_->convert<T>(value_scale_);
    ell_ = ell_from_csr(csr_);
  }

  /// Flip one bit of one stored nonzero on the *active* kernel path (ELL
  /// values when optimized, CSR values when reference) — the target:values
  /// fault site. `value_draw`/`bit_draw` are the injector's raw draws,
  /// reduced here against the live slab's geometry; `pinned_bit` >= 0 pins
  /// the in-element bit index. The double source is untouched, so
  /// redemote() repairs the damage.
  void corrupt_value_bit(std::uint64_t value_draw, std::uint64_t bit_draw,
                         int pinned_bit) {
    std::span<T> values = opt_ == OptLevel::Reference
                              ? std::span<T>(csr_.values)
                              : std::span<T>(ell_.values);
    if (values.empty()) {
      return;
    }
    constexpr std::size_t bits = sizeof(T) * 8;
    const std::size_t elem =
        static_cast<std::size_t>(value_draw % values.size());
    const std::size_t bit =
        pinned_bit >= 0 ? static_cast<std::size_t>(pinned_bit) % bits
                        : static_cast<std::size_t>(bit_draw % bits);
    auto* bytes = reinterpret_cast<unsigned char*>(values.data());
    bytes[elem * sizeof(T) + bit / 8] ^=
        static_cast<unsigned char>(1u << (bit % 8));
  }

  [[nodiscard]] double value_scale() const { return value_scale_; }

  /// Set the demotion scale to the *absolute* value `scale`, re-demoting
  /// the stored matrix from the double source — a ScaleGuard backing off
  /// or recovering mid-solve. Re-demoting (rather than multiplying the
  /// rounded low-precision values in place) keeps the stored operator
  /// exactly (T)(scale·A) — entries in fp16's subnormal range would
  /// otherwise be double-rounded on every backoff/regrow round trip — and
  /// makes the call idempotent, so callers holding aliased views of one
  /// operator (GmresIr's a_low is the multigrid's fine level) stay
  /// consistent. No-op when the scale is unchanged.
  void set_value_scale(double scale) {
    if (scale == value_scale_) {
      return;
    }
    value_scale_ = scale;
    csr_ = source_->convert<T>(scale);
    ell_ = ell_from_csr(csr_);
  }

  /// Bytes one stored ELL column index occupies (absolute 32-bit columns)
  /// — what the bytes model charges per optimized-path nonzero.
  [[nodiscard]] static constexpr std::size_t ell_index_bytes() {
    return sizeof(local_index_t);
  }

  /// y = A x. x is a full-length vector (owned+halo); its halo region is
  /// refreshed as part of the product. Overlapped on the optimized path.
  void spmv(Comm& comm, std::span<T> x, std::span<T> y) {
    ScopedMotif sm(stats_, Motif::SpMV, spmv_flops(nnz()));
    if (opt_ == OptLevel::Reference) {
      halo_exchange_.exchange(comm, x, sink_);
      csr_spmv(csr_, std::span<const T>(x.data(), x.size()), y);
      return;
    }
    halo_exchange_.begin(comm, x, sink_);
    const double t0 = epoch_seconds();
    ell_spmv_rows(ell_, std::span<const T>(x.data(), x.size()), y,
                  structure_->interior_rows);
    sink_->record(comm.rank(), "compute", "interior-spmv", t0,
                  epoch_seconds());
    halo_exchange_.finish(comm, sink_);
    const double t1 = epoch_seconds();
    ell_spmv_rows(ell_, std::span<const T>(x.data(), x.size()), y,
                  structure_->boundary_rows);
    sink_->record(comm.rank(), "compute", "boundary-spmv", t1,
                  epoch_seconds());
  }

  /// Fused y = A x with the distributed ⟨y, x⟩ over owned rows folded into
  /// the same sweep (one allreduce). The local dot is an ordered per-block
  /// partial sum: on the reference path dot_span_blocked(y, x) over the
  /// owned rows, on the optimized path dot_rows_blocked over the interior
  /// list plus the same over the boundary list — bit for bit, for any
  /// thread count.
  [[nodiscard]] double spmv_dot(Comm& comm, std::span<T> x, std::span<T> y) {
    ScopedMotif sm(stats_, Motif::SpMV, spmv_flops(nnz()));
    if (stats_ != nullptr) {
      stats_->add_flops(Motif::SpMV, dot_flops(num_owned()));
    }
    double local;
    if (opt_ == OptLevel::Reference) {
      halo_exchange_.exchange(comm, x, sink_);
      local = csr_spmv_dot(csr_, std::span<const T>(x.data(), x.size()), y);
    } else {
      halo_exchange_.begin(comm, x, sink_);
      const double t0 = epoch_seconds();
      const double interior = ell_spmv_rows_dot(
          ell_, std::span<const T>(x.data(), x.size()), y,
          structure_->interior_rows);
      sink_->record(comm.rank(), "compute", "interior-spmv", t0,
                    epoch_seconds());
      halo_exchange_.finish(comm, sink_);
      const double t1 = epoch_seconds();
      const double boundary = ell_spmv_rows_dot(
          ell_, std::span<const T>(x.data(), x.size()), y,
          structure_->boundary_rows);
      sink_->record(comm.rank(), "compute", "boundary-spmv", t1,
                    epoch_seconds());
      local = interior + boundary;
    }
    return comm.allreduce_scalar(local, ReduceOp::Sum);
  }

  /// r = b − A x (owned rows).
  void residual(Comm& comm, std::span<const T> b, std::span<T> x,
                std::span<T> r) {
    ScopedMotif sm(stats_, Motif::SpMV, residual_flops(nnz(), num_owned()));
    halo_exchange_.exchange(comm, x, sink_);
    csr_residual(csr_, b, std::span<const T>(x.data(), x.size()), r);
  }

  /// Fused r = b − A x with the distributed ‖r‖² in the same sweep (the
  /// update+norm fusion of the refinement residual; one allreduce). Same
  /// ordered-partial contract as spmv_dot: bit-identical to residual()
  /// followed by dot_span_blocked(r, r), minus a full read sweep of r.
  [[nodiscard]] double residual_norm2(Comm& comm, std::span<const T> b,
                                      std::span<T> x, std::span<T> r) {
    return comm.allreduce_scalar(residual_norm2_local(comm, b, x, r),
                                 ReduceOp::Sum);
  }

  /// Local leg of residual_norm2: the same fused sweep (including the halo
  /// exchange of x) minus the allreduce, for callers that pack the
  /// reduction with other scalars (GmresIr's ReductionLanes sites).
  [[nodiscard]] double residual_norm2_local(Comm& comm, std::span<const T> b,
                                            std::span<T> x, std::span<T> r) {
    ScopedMotif sm(stats_, Motif::SpMV, residual_flops(nnz(), num_owned()));
    if (stats_ != nullptr) {
      stats_->add_flops(Motif::SpMV, dot_flops(num_owned()));
    }
    halo_exchange_.exchange(comm, x, sink_);
    return csr_residual_norm2(csr_, b, std::span<const T>(x.data(), x.size()),
                              r);
  }

  /// One forward Gauss–Seidel sweep on A z = r. z is full-length; its halo
  /// holds the neighbors' pre-sweep values (block-Jacobi coupling).
  ///
  /// Optimized-path overlap follows the paper's event semantics: the send
  /// buffer is packed from the *old* z before the interior kernel may
  /// overwrite boundary entries; interior rows of the first color are
  /// smoothed while the exchange is in flight.
  void gs_forward(Comm& comm, std::span<const T> r, std::span<T> z) {
    ScopedMotif sm(stats_, Motif::GS, gs_sweep_flops(nnz(), num_owned()));
    if (opt_ == OptLevel::Reference) {
      halo_exchange_.exchange(comm, z, sink_);
      scratch_.resize(static_cast<std::size_t>(num_owned()));
      gs_sweep_reference(csr_, structure_->level_schedule, r, z,
                         std::span<T>(scratch_.data(), scratch_.size()));
      return;
    }
    halo_exchange_.begin(comm, z, sink_);  // packs old z first (the "event")
    const double t0 = epoch_seconds();
    gs_sweep_rows_ell(ell_, structure_->colors_interior.group(0), r, z);
    sink_->record(comm.rank(), "compute", "GS-int-c0", t0, epoch_seconds());
    halo_exchange_.finish(comm, sink_);
    const double t1 = epoch_seconds();
    gs_sweep_rows_ell(ell_, structure_->colors_boundary.group(0), r, z);
    for (int c = 1; c < structure_->colors_interior.num_groups(); ++c) {
      gs_sweep_rows_ell(ell_, structure_->colors_interior.group(c), r, z);
      gs_sweep_rows_ell(ell_, structure_->colors_boundary.group(c), r, z);
    }
    sink_->record(comm.rank(), "compute", "GS-rest", t1, epoch_seconds());
  }

  /// One backward sweep (colors descending); with gs_forward this forms the
  /// symmetric GS smoother of the HPCG-baseline CG solver. Optimized path
  /// only (the baseline comparison runs on the optimized configuration).
  void gs_backward(Comm& comm, std::span<const T> r, std::span<T> z) {
    ScopedMotif sm(stats_, Motif::GS, gs_sweep_flops(nnz(), num_owned()));
    halo_exchange_.exchange(comm, z, sink_);
    gs_sweep_colored_backward(csr_, structure_->colors, r, z);
  }

  /// Coarse-grid residual rc = R(b − A z) via the given injection map.
  /// Optimized: fused kernel evaluated only at coarse points (§3.2.4);
  /// reference: full fine-grid residual followed by injection, using
  /// caller-provided fine-length scratch. `TOut` is the coarse level's
  /// storage format — a precision-scheduled multigrid converts on the
  /// kernel's final store, never in a separate full-grid pass.
  template <typename TOut = T>
  void restrict_residual(Comm& comm, std::span<const T> b, std::span<T> z,
                         std::span<const local_index_t> c2f,
                         std::int64_t nnz_coarse_rows, std::span<TOut> rc) {
    if (opt_ == OptLevel::Reference) {
      // Unfused: the motif model still charges only the fused cost so both
      // paths report identical work; the reference path just takes longer.
      ScopedMotif sm(stats_, Motif::Restrict,
                     fused_restrict_flops(nnz_coarse_rows,
                                          static_cast<local_index_t>(c2f.size())));
      halo_exchange_.exchange(comm, z, sink_);
      scratch_.resize(static_cast<std::size_t>(num_owned()));
      csr_residual(csr_, b, std::span<const T>(z.data(), z.size()),
                   std::span<T>(scratch_.data(), scratch_.size()));
      inject_restrict(c2f,
                      std::span<const T>(scratch_.data(), scratch_.size()),
                      rc);
      return;
    }
    ScopedMotif sm(stats_, Motif::Restrict,
                   fused_restrict_flops(nnz_coarse_rows,
                                        static_cast<local_index_t>(c2f.size())));
    halo_exchange_.exchange(comm, z, sink_);
    fused_restrict_residual(csr_, b, std::span<const T>(z.data(), z.size()),
                            c2f, rc);
  }

 private:
  const CsrMatrix<double>* source_;
  double value_scale_;
  CsrMatrix<T> csr_;
  EllMatrix<T> ell_;
  const OperatorStructure* structure_;
  OptLevel opt_;
  HaloExchange<T> halo_exchange_;
  AlignedVector<T> scratch_;
  MotifStats* stats_ = nullptr;
  EventSink* sink_ = &null_event_sink();
};

}  // namespace hpgmx
