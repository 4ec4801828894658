// Right-preconditioned restarted GMRES with CGS2 (re-orthogonalized
// classical Gram–Schmidt) — paper algorithm 2, in a single precision T.
// The all-double instantiation is the benchmark's 'double' reference
// solver; the float instantiation is exercised by tests.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/aligned_vector.hpp"
#include "base/cancel.hpp"
#include "base/fault.hpp"
#include "base/solve_status.hpp"
#include "blas/multivector.hpp"
#include "blas/vector_ops.hpp"
#include "core/dist_operator.hpp"
#include "core/givens.hpp"
#include "core/multigrid.hpp"
#include "core/reduction_lanes.hpp"
#include "perf/motifs.hpp"
#include "precision/precision.hpp"

namespace hpgmx {

struct SolverOptions {
  int restart = 30;
  int max_iters = 300;
  double tol = 1e-9;  ///< relative to ||b||
  bool track_history = false;
  /// Cooperative cancellation/deadline control. The trip decision rides an
  /// existing reduction as one extra packed lane (core/reduction_lanes.hpp),
  /// so all ranks exit the same iteration; with the default (inactive)
  /// control the solvers keep their exact control-free message schedule and
  /// bits.
  SolveControl control;
  /// SDC detection + recovery policy (base/fault.hpp). With detect on, the
  /// corruption verdict rides the same packed reductions as the trip lane
  /// (zero new collectives) and the outer iterate is checkpointed every
  /// checkpoint_interval cycles for rollback; with the default (off) policy
  /// the solvers keep their exact detection-free schedule and bits, and a
  /// detection-on fault-free run is bit-identical to detection-off.
  SdcPolicy sdc;
};

struct SolveResult {
  int iterations = 0;  ///< Arnoldi steps performed (the benchmark's count)
  /// Structured outcome (rank-uniform; see base/solve_status.hpp). A failed
  /// solve still carries relative_residual (the last allreduce-derived
  /// value) and final_precision so callers can decide on retry/promotion.
  SolveStatus status = SolveStatus::Stagnated;
  double relative_residual = 0.0;  ///< true relative residual at exit
  /// Storage format the (final) iteration ran in: T for Gmres/CG, the inner
  /// TLow for GmresIr, and the last rung for AdaptiveGmresIr.
  Precision final_precision = Precision::Fp64;
  std::vector<double> history;     ///< per-restart true relative residuals
  /// A cycle observer asked the solver to stop so the caller can re-enter
  /// at a promoted precision (GmresIr::set_cycle_observer); x holds the
  /// warm iterate. Always false for Gmres/CG and observer-less GMRES-IR.
  bool switch_requested = false;
  /// Checkpoint rollbacks performed after an SDC verdict (rank-uniform:
  /// every rollback is decided from reduced lanes). 0 unless opts.sdc is on.
  int recoveries = 0;

  [[nodiscard]] bool converged() const {
    return status == SolveStatus::Converged;
  }
};

template <typename T>
class Gmres {
 public:
  /// `a` and `mg` must outlive the solver. `mg` may be nullptr
  /// (unpreconditioned GMRES, used in tests).
  Gmres(DistOperator<T>* a, Multigrid<T>* mg, SolverOptions opts)
      : a_(a), mg_(mg), opts_(opts) {}

  void set_stats(MotifStats* stats) {
    stats_ = stats;
    a_->set_stats(stats);
    if (mg_ != nullptr) {
      mg_->set_stats(stats);
    }
  }

  /// Attach the per-rank SDC monitor: halo messages of the operator and the
  /// preconditioner levels carry verified checksums, and the monitor's
  /// verdict lane rides this solver's cycle-top reduction when opts.sdc is
  /// on. Null detaches.
  void set_sdc(SdcMonitor* monitor) {
    monitor_ = monitor;
    a_->set_sdc_monitor(monitor);
    if (mg_ != nullptr) {
      mg_->set_sdc_monitor(monitor);
    }
  }

  /// Attach the per-rank fault injector (target:vec flips the iterate at
  /// cycle boundaries, target:values corrupts the operator's stored
  /// nonzeros; target:halo is ChaosComm's job). Null detaches.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Solve A x = b from the given initial guess (owned-length spans).
  SolveResult solve(Comm& comm, std::span<const T> b, std::span<T> x) {
    const local_index_t n = a_->num_owned();
    const int m = opts_.restart;
    MultiVector<T> q(n, m + 1);
    AlignedVector<T> x_full(static_cast<std::size_t>(a_->vec_len()), T(0));
    AlignedVector<T> z_full(static_cast<std::size_t>(a_->vec_len()), T(0));
    AlignedVector<T> r(static_cast<std::size_t>(n), T(0));
    AlignedVector<T> u(static_cast<std::size_t>(n), T(0));
    AlignedVector<double> h(static_cast<std::size_t>(m) + 2, 0.0);
    AlignedVector<T> h1(static_cast<std::size_t>(m) + 1, T(0));
    AlignedVector<T> h2(static_cast<std::size_t>(m) + 1, T(0));
    AlignedVector<double> y(static_cast<std::size_t>(m), 0.0);
    AlignedVector<T> y_t(static_cast<std::size_t>(m), T(0));
    HessenbergQR qr(m);

    SolveResult result;
    result.final_precision = precision_of_v<T>;
    ReductionLanes<T> lanes(opts_.control, opts_.sdc.detect, monitor_);
    SdcRollback<T> rollback(opts_.sdc, sizeof(T), monitor_);
    std::int64_t outer_cycle = 0;
    double rho0;
    {
      ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
      rho0 = static_cast<double>(nrm2<T>(comm, b));
    }
    if (rho0 == 0.0) {
      set_all(x, T(0));
      result.status = SolveStatus::Converged;
      return result;
    }
    for (local_index_t i = 0; i < n; ++i) {
      x_full[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
    }
    rollback.save(x_full);  // rollback target before the first checkpoint

    while (result.iterations < opts_.max_iters) {
      const std::int64_t cycle = outer_cycle++;
      // Scripted value faults enter here, before the cycle-top residual, so
      // a flip at site `cycle` is visible to this cycle's audit.
      inject_faults(injector_, cycle,
                    std::span<T>(x_full.data(), static_cast<std::size_t>(n)),
                    *a_);
      // True residual at the top of each cycle (alg. 2/3 line 7); its norm
      // carries the trip and verdict lanes.
      a_->residual(comm, b, std::span<T>(x_full.data(), x_full.size()),
                   std::span<T>(r.data(), r.size()));
      double rho;
      {
        ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
        lanes.reduce(comm, {static_cast<T>(dot_local(
                               std::span<const T>(r.data(), r.size()),
                               std::span<const T>(r.data(), r.size())))});
        rho = static_cast<double>(
            static_cast<T>(std::sqrt(static_cast<double>(lanes[0]))));
      }
      result.relative_residual = rho / rho0;
      if (opts_.track_history) {
        result.history.push_back(result.relative_residual);
      }
      // Verdict before the convergence check, so a corrupted measurement
      // cannot fake convergence.
      if (rollback.suspect(lanes.flagged(), rho, result.relative_residual)) {
        if (!rollback.restore(result.recoveries, x_full)) {
          result.status = SolveStatus::Corrupted;
          break;
        }
        continue;
      }
      if (result.relative_residual < opts_.tol) {
        result.status = SolveStatus::Converged;
        break;
      }
      if (lanes.tripped()) {
        result.status = trip_status(lanes.trip());
        break;
      }
      rollback.save_due(cycle, x_full);  // audited clean just above
      // q1 = r / rho; the reduced RHS is e1 (scale folded into the final
      // update to keep T-precision magnitudes O(1)).
      {
        ScopedMotif sm(stats_, Motif::Vector, scal_flops(n));
        auto q0 = q.column(0);
        const T inv = static_cast<T>(1.0 / rho);
        for (local_index_t i = 0; i < n; ++i) {
          q0[static_cast<std::size_t>(i)] =
              r[static_cast<std::size_t>(i)] * inv;
        }
      }
      qr.reset(1.0);

      int k_used = 0;
      bool cycle_converged = false;
      for (int k = 0; k < m && result.iterations < opts_.max_iters; ++k) {
        // z = M⁻¹ q_k ; w = A z  (alg. 3 lines 18–19)
        if (mg_ != nullptr) {
          mg_->apply(comm, q.column(k), std::span<T>(z_full.data(), z_full.size()));
        } else {
          convert_copy(std::span<const T>(q.column(k).data(),
                                          static_cast<std::size_t>(n)),
                       std::span<T>(z_full.data(), static_cast<std::size_t>(n)));
        }
        auto w = q.column(k + 1);
        a_->spmv(comm, std::span<T>(z_full.data(), z_full.size()), w);

        // CGS2 with re-orthogonalization (alg. 3 lines 20–27). The ‖w‖² of
        // the normalization that follows is folded into the second
        // projection pass (gemv_n_sub_norm).
        double beta_sq;
        {
          ScopedMotif sm(stats_, Motif::Ortho, cgs2_flops(n, k + 1));
          gemv_t(comm, q, k + 1, std::span<const T>(w.data(), w.size()),
                 std::span<T>(h1.data(), h1.size()));
          gemv_n_sub(q, k + 1, std::span<const T>(h1.data(), h1.size()), w);
          gemv_t(comm, q, k + 1, std::span<const T>(w.data(), w.size()),
                 std::span<T>(h2.data(), h2.size()));
          beta_sq = gemv_n_sub_norm(
              q, k + 1, std::span<const T>(h2.data(), h2.size()), w);
        }
        for (int j = 0; j <= k; ++j) {
          h[static_cast<std::size_t>(j)] =
              static_cast<double>(h1[static_cast<std::size_t>(j)]) +
              static_cast<double>(h2[static_cast<std::size_t>(j)]);
        }
        double beta;
        {
          ScopedMotif sm(stats_, Motif::Ortho, normalize_flops(n));
          beta = std::sqrt(
              comm.allreduce_scalar(beta_sq, ReduceOp::Sum));
          if (beta > 0) {
            scal(static_cast<T>(1.0 / beta), w);
          }
        }
        h[static_cast<std::size_t>(k) + 1] = beta;

        double rho_est;
        {
          ScopedMotif sm(stats_, Motif::Other);
          rho_est = qr.insert_column(k, std::span<double>(h.data(), h.size())) *
                    rho;
        }
        ++result.iterations;
        k_used = k + 1;
        if (rho_est / rho0 < opts_.tol || beta == 0.0) {
          cycle_converged = true;
          break;
        }
      }
      if (k_used == 0) {
        break;  // no progress possible (max_iters hit exactly at a restart)
      }

      // x ← x + rho · M⁻¹ (Q y)   (alg. 3 lines 45–47)
      {
        ScopedMotif sm(stats_, Motif::Other);
        qr.solve(k_used, std::span<double>(y.data(), y.size()));
        for (int j = 0; j < k_used; ++j) {
          y_t[static_cast<std::size_t>(j)] =
              static_cast<T>(y[static_cast<std::size_t>(j)]);
        }
      }
      {
        ScopedMotif sm(stats_, Motif::Ortho,
                       2 * static_cast<flop_count_t>(n) *
                           static_cast<flop_count_t>(k_used));
        gemv_n(q, k_used, std::span<const T>(y_t.data(), y_t.size()),
               std::span<T>(u.data(), u.size()));
      }
      if (mg_ != nullptr) {
        mg_->apply(comm, std::span<const T>(u.data(), u.size()),
                   std::span<T>(z_full.data(), z_full.size()));
      } else {
        convert_copy(std::span<const T>(u.data(), u.size()),
                     std::span<T>(z_full.data(), static_cast<std::size_t>(n)));
      }
      {
        ScopedMotif sm(stats_, Motif::Vector, waxpby_flops(n));
        axpy(rho, std::span<const T>(z_full.data(), static_cast<std::size_t>(n)),
             std::span<T>(x_full.data(), static_cast<std::size_t>(n)));
      }
      (void)cycle_converged;  // verified against the true residual next cycle
    }

    if (!result.converged() && !lanes.tripped() &&
        result.status != SolveStatus::Corrupted) {
      // Loop left on the iteration cap: report the final true residual.
      // (A tripped exit keeps the last cycle-top residual instead: the
      // caller asked us to stop spending collectives, not start new ones.)
      a_->residual(comm, b, std::span<T>(x_full.data(), x_full.size()),
                   std::span<T>(r.data(), r.size()));
      const double rho = static_cast<double>(
          nrm2<T>(comm, std::span<const T>(r.data(), r.size())));
      result.relative_residual = rho / rho0;
      result.status = result.relative_residual < opts_.tol
                          ? SolveStatus::Converged
                          : SolveStatus::Stagnated;
    }
    for (local_index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = x_full[static_cast<std::size_t>(i)];
    }
    return result;
  }

  /// Solve the B columns of `b` against the same operator state, one after
  /// another. Each column runs the exact solve() sequence, so the results
  /// are bitwise identical to B independent single-RHS calls — the batch
  /// amortizes the expensive setup (hierarchy, coloring, ELL packing,
  /// demotion) that lives in the operator, not the per-column arithmetic.
  std::vector<SolveResult> solve_many(Comm& comm, const MultiVector<T>& b,
                                      MultiVector<T>& x) {
    HPGMX_CHECK(b.cols() == x.cols());
    std::vector<SolveResult> results;
    results.reserve(static_cast<std::size_t>(b.cols()));
    for (int j = 0; j < b.cols(); ++j) {
      results.push_back(solve(comm, b.column(j), x.column(j)));
    }
    return results;
  }

 private:
  DistOperator<T>* a_;
  Multigrid<T>* mg_;
  SolverOptions opts_;
  MotifStats* stats_ = nullptr;
  SdcMonitor* monitor_ = nullptr;
  FaultInjector* injector_ = nullptr;
};

}  // namespace hpgmx
