// Preconditioned Conjugate Gradient — the HPCG baseline (paper algorithm 1),
// used by the §4.1 comparison ("when we ran HPCG ourselves on Frontier ...
// 10.4 petaflops"). Preconditioner: one Multigrid V-cycle in its symmetric
// (forward+backward Gauss–Seidel) smoothing mode, per the HPCG
// specification — callers switch it on with set_symmetric_smoothing(true).
#pragma once

#include <cmath>

#include "base/aligned_vector.hpp"
#include "base/fault.hpp"
#include "blas/vector_ops.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "core/reduction_lanes.hpp"

namespace hpgmx {

/// Preconditioned CG (paper algorithm 1) in precision T.
template <typename T>
class ConjugateGradient {
 public:
  /// `mg` (symmetric smoothing on; may be nullptr for unpreconditioned CG)
  /// and `a` must outlive the solver.
  ConjugateGradient(DistOperator<T>* a, Multigrid<T>* mg, SolverOptions opts)
      : a_(a), mg_(mg), opts_(opts) {}

  void set_stats(MotifStats* stats) {
    stats_ = stats;
    a_->set_stats(stats);
    if (mg_ != nullptr) {
      mg_->set_stats(stats);
    }
  }

  /// Attach the per-rank SDC monitor (checksummed halos on the operator and
  /// every preconditioner level; verdict lane on the packed reductions when
  /// opts.sdc is on). Null detaches.
  void set_sdc(SdcMonitor* monitor) {
    monitor_ = monitor;
    a_->set_sdc_monitor(monitor);
    if (mg_ != nullptr) {
      mg_->set_sdc_monitor(monitor);
    }
  }

  /// Attach the per-rank fault injector (target:vec flips the iterate,
  /// target:values corrupts stored nonzeros). Null detaches.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  SolveResult solve(Comm& comm, std::span<const T> b, std::span<T> x) {
    const local_index_t n = a_->num_owned();
    AlignedVector<T> x_full(static_cast<std::size_t>(a_->vec_len()), T(0));
    AlignedVector<T> p_full(static_cast<std::size_t>(a_->vec_len()), T(0));
    AlignedVector<T> r(static_cast<std::size_t>(n), T(0));
    AlignedVector<T> z(static_cast<std::size_t>(n), T(0));
    AlignedVector<T> ap(static_cast<std::size_t>(n), T(0));

    SolveResult result;
    result.final_precision = precision_of_v<T>;
    ReductionLanes<double> lanes(opts_.control, opts_.sdc.detect, monitor_);
    // SDC detection state. CG audits by recurrence-vs-true residual drift:
    // every audit_interval iterations the true ‖b − A·x‖² rides one extra
    // lane on the packed reduction and is compared against the recurrence
    // ‖r‖². The rollback point refreshes only on iterations whose audit came
    // back clean, so a checkpoint can never capture corrupted state that a
    // later audit would flag.
    SdcRollback<T> rollback(opts_.sdc, sizeof(T), monitor_);
    const double drift_limit =
        opts_.sdc.audit_drift *
        static_cast<double>(PrecisionTraits<T>::unit_roundoff);
    bool restart_direction = false;
    AlignedVector<T> r_audit;
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
    a_->residual(comm, b, std::span<T>(x_full.data(), x_full.size()),
                 std::span<T>(r.data(), r.size()));
    if (rollback.active()) {
      rollback.save(x_full);
      r_audit.assign(r.size(), T(0));
    }
    // Local ‖r‖² of the initial residual; every later iteration carries the
    // partial out of the fused residual-update pass (waxpby_norm) below.
    // Its allreduce rides with ⟨r,z⟩ in one packed message.
    double rho2_local;
    {
      ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
      rho2_local = dot_span_blocked(std::span<const T>(r.data(), r.size()),
                                    std::span<const T>(r.data(), r.size()));
    }

    // Restore the last audited-clean iterate, rebuild demoted operator
    // storage (a value flip may have hit it), recompute the recurrence
    // residual from scratch, and restart the search direction. Returns
    // false when the recovery budget is spent.
    const auto recover = [&]() -> bool {
      if (!rollback.restore(result.recoveries, x_full)) {
        result.status = SolveStatus::Corrupted;
        return false;
      }
      a_->redemote();
      if (mg_ != nullptr) {
        mg_->redemote();
      }
      a_->residual(comm, b, std::span<T>(x_full.data(), x_full.size()),
                   std::span<T>(r.data(), r.size()));
      ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
      rho2_local = dot_span_blocked(std::span<const T>(r.data(), r.size()),
                                    std::span<const T>(r.data(), r.size()));
      restart_direction = true;
      return true;
    };

    double rz_old = 0.0;
    while (result.iterations < opts_.max_iters) {
      // Deterministic fault sites, keyed by the iteration count.
      inject_faults(injector_, result.iterations,
                    std::span<T>(x_full.data(), static_cast<std::size_t>(n)),
                    *a_);
      // z = M r sits above the convergence check so ⟨r,z⟩ shares one packed
      // reduction with ‖r‖² (2 allreduces/iteration with spmv_dot's). The
      // price is one speculative preconditioner application on the final
      // (converging) iteration.
      if (mg_ != nullptr) {
        mg_->apply(comm, std::span<const T>(r.data(), r.size()),
                   std::span<T>(z.data(), z.size()));
      } else {
        convert_copy(std::span<const T>(r.data(), r.size()),
                     std::span<T>(z.data(), z.size()));
      }
      double rz_local;
      {
        ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
        rz_local = static_cast<double>(
            dot_local(std::span<const T>(r.data(), r.size()),
                      std::span<const T>(z.data(), z.size())));
      }
      const bool audit_now =
          rollback.active() && result.iterations > 0 &&
          result.iterations % opts_.sdc.audit_interval == 0;
      if (audit_now) {
        a_->residual(comm, b, std::span<T>(x_full.data(), x_full.size()),
                     std::span<T>(r_audit.data(), r_audit.size()));
        double audit_local;
        {
          ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
          audit_local = dot_span_blocked(
              std::span<const T>(r_audit.data(), r_audit.size()),
              std::span<const T>(r_audit.data(), r_audit.size()));
        }
        lanes.reduce(comm, {rho2_local, rz_local, audit_local});
      } else {
        lanes.reduce(comm, {rho2_local, rz_local});
      }
      const double rho2 = lanes[0];
      const double rz = lanes[1];
      bool corrupted = lanes.flagged();
      if (audit_now) {
        const double drift = std::abs(std::sqrt(lanes[2]) - std::sqrt(rho2));
        if (!(drift <= drift_limit * rho0)) {
          corrupted = true;  // also catches NaN drift
        }
        if (!corrupted && std::isfinite(rho2)) {
          rollback.save(x_full);  // audited clean — refresh the rollback point
        }
      }
      const double rho = std::sqrt(rho2);
      result.relative_residual = rho / rho0;
      if (opts_.track_history) {
        result.history.push_back(result.relative_residual);
      }
      if (rollback.active() && (corrupted || !std::isfinite(rho))) {
        // Checked before convergence so a flipped-to-tiny norm cannot fake
        // success.
        if (!recover()) {
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
      if (result.iterations == 0 || restart_direction) {
        restart_direction = false;
        ScopedMotif sm(stats_, Motif::Vector, scal_flops(n));
        for (local_index_t i = 0; i < n; ++i) {
          p_full[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)];
        }
      } else {
        const double beta = rz / rz_old;
        ScopedMotif sm(stats_, Motif::Vector, waxpby_flops(n));
        for (local_index_t i = 0; i < n; ++i) {
          p_full[static_cast<std::size_t>(i)] =
              z[static_cast<std::size_t>(i)] +
              static_cast<T>(beta) * p_full[static_cast<std::size_t>(i)];
        }
      }
      rz_old = rz;
      // w = A p with ⟨Ap, p⟩ in the same sweep.
      const double pap =
          a_->spmv_dot(comm, std::span<T>(p_full.data(), p_full.size()),
                       std::span<T>(ap.data(), ap.size()));
      if (rollback.active() && !(pap > 0)) {
        // Corrupted curvature (NaN or nonpositive ⟨Ap, p⟩ after a value
        // flip). pap is allreduce-derived, hence rank-uniform — recover
        // instead of aborting the run.
        if (!recover()) {
          break;
        }
        continue;
      }
      HPGMX_CHECK_MSG(pap > 0, "CG: matrix is not positive definite");
      const double alpha = rz / pap;
      {
        ScopedMotif sm(stats_, Motif::Vector, waxpby_flops(n));
        axpy(alpha, std::span<const T>(p_full.data(), static_cast<std::size_t>(n)),
             std::span<T>(x_full.data(), static_cast<std::size_t>(n)));
      }
      // r ← r − alpha·Ap fused with the next iteration's ‖r‖² (waxpby_norm).
      {
        ScopedMotif sm(stats_, Motif::Vector,
                       waxpby_flops(n) + dot_flops(n));
        rho2_local = waxpby_norm(1.0, std::span<const T>(r.data(), r.size()),
                                 -alpha,
                                 std::span<const T>(ap.data(), ap.size()),
                                 std::span<T>(r.data(), r.size()));
      }
      ++result.iterations;
    }

    for (local_index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = x_full[static_cast<std::size_t>(i)];
    }
    return result;
  }

  /// Solve the B columns of `b` sequentially against the same operator
  /// state; bitwise identical to B independent solve() calls (the batch
  /// amortizes setup, not per-column arithmetic).
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
