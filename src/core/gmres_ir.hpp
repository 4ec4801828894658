// Mixed-precision GMRES-IR (paper algorithm 3): iterative refinement whose
// correction equations are solved by restarted GMRES cycles running entirely
// in a low precision TLow, while the outer residual (line 7) and solution
// update (line 47) are performed in double — the two steps the benchmark
// *requires* in double so the final accuracy matches a full double solver.
//
// In low precision: the matrix copy (A_low), the multigrid hierarchy, the
// Krylov basis, SpMV, smoothing, and CGS2 orthogonalization (including its
// float allreduces — half the payload of the double solver's reductions).
// In double: outer residual/norm, Givens QR (host-redundant), and the
// mixed-precision WAXPBY that applies the correction.
//
// TLow is the *entry* format: with a progressive-precision schedule the
// multigrid's coarse levels may narrow further (fp32 fine, bf16/fp16
// coarse — see Multigrid and docs/MULTIGRID.md). The solver is oblivious:
// it exchanges TLow vectors with the fine level, and the schedule's
// per-level scales are compensated inside prolongation, so the guard's
// x += ρ·α·z update is unchanged.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/aligned_vector.hpp"
#include "blas/multivector.hpp"
#include "blas/vector_ops.hpp"
#include "core/dist_operator.hpp"
#include "core/givens.hpp"
#include "core/gmres.hpp"
#include "core/multigrid.hpp"
#include "core/reduction_lanes.hpp"
#include "perf/motifs.hpp"
#include "precision/adaptive_controller.hpp"
#include "precision/scale_guard.hpp"

namespace hpgmx {

template <typename TLow = float>
class GmresIr {
 public:
  /// `a_high` performs the double outer residual; `a_low`/`mg_low` run the
  /// inner cycles. All must outlive the solver and share one
  /// OperatorStructure per level.
  GmresIr(DistOperator<double>* a_high, DistOperator<TLow>* a_low,
          Multigrid<TLow>* mg_low, SolverOptions opts)
      : a_high_(a_high), a_low_(a_low), mg_low_(mg_low), opts_(opts) {}

  void set_stats(MotifStats* stats) {
    stats_ = stats;
    a_high_->set_stats(stats);
    a_low_->set_stats(stats);
    mg_low_->set_stats(stats);
  }

  /// Attach an AMP-style scale guard. `a_low`/`mg_low` must have been
  /// demoted with `guard->scale()` as their value_scale; the solver then
  /// compensates updates with the current scale, watches the inner basis
  /// for non-finite growth, and drives the guard's backoff/regrow cycle.
  /// Without a guard, a non-finite inner basis aborts the solve
  /// (converged = false) instead of burning the iteration budget.
  void set_scale_guard(ScaleGuard* guard) { guard_ = guard; }

  /// Attach a per-cycle observer (the adaptive PrecisionController, or its
  /// passive recorder). The solver reports the outer relative residual at
  /// the top of each refinement cycle, the Arnoldi step count of each inner
  /// cycle, and rank-consistent non-finite detections. When an observation
  /// returns CycleAction::Promote the solve stops with
  /// `switch_requested = true` and x holding its current (warm) iterate, so
  /// the caller can re-enter at a wider format. Every observation point is
  /// allreduce-derived or collectively voted, so all SPMD ranks observe the
  /// same sequence and stop together. A null or passive observer leaves the
  /// iteration bitwise unchanged.
  void set_cycle_observer(InnerCycleObserver* observer) {
    observer_ = observer;
  }

  /// Attach the per-rank SDC monitor: every halo exchange (outer double
  /// residual, inner TLow SpMV/smoothing on all levels) carries verified
  /// checksums, and the monitor's verdict lane rides the solver's existing
  /// packed reductions when opts.sdc is on. Null detaches.
  void set_sdc(SdcMonitor* monitor) {
    monitor_ = monitor;
    a_high_->set_sdc_monitor(monitor);
    a_low_->set_sdc_monitor(monitor);
    mg_low_->set_sdc_monitor(monitor);
  }

  /// Attach the per-rank fault injector (target:vec flips the double outer
  /// iterate at cycle boundaries, target:values corrupts the low-precision
  /// operator's stored nonzeros; target:halo is ChaosComm's). Null detaches.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  SolveResult solve(Comm& comm, std::span<const double> b,
                    std::span<double> x) {
    const local_index_t n = a_high_->num_owned();
    const int m = opts_.restart;
    MultiVector<TLow> q(n, m + 1);
    AlignedVector<double> x_full(static_cast<std::size_t>(a_high_->vec_len()),
                                 0.0);
    AlignedVector<TLow> z_full(static_cast<std::size_t>(a_low_->vec_len()),
                               TLow(0));
    AlignedVector<double> r(static_cast<std::size_t>(n), 0.0);
    AlignedVector<TLow> u(static_cast<std::size_t>(n), TLow(0));
    AlignedVector<double> h(static_cast<std::size_t>(m) + 2, 0.0);
    AlignedVector<TLow> h1(static_cast<std::size_t>(m) + 1, TLow(0));
    AlignedVector<TLow> h2(static_cast<std::size_t>(m) + 1, TLow(0));
    AlignedVector<double> y(static_cast<std::size_t>(m), 0.0);
    AlignedVector<TLow> y_t(static_cast<std::size_t>(m), TLow(0));
    HessenbergQR qr(m);

    SolveResult result;
    result.final_precision = precision_of_v<TLow>;
    double rho0;
    {
      ScopedMotif sm(stats_, Motif::Ortho, dot_flops(n));
      rho0 = nrm2<double>(comm, b);
    }
    if (rho0 == 0.0) {
      set_all(x, 0.0);
      result.status = SolveStatus::Converged;
      return result;
    }
    for (local_index_t i = 0; i < n; ++i) {
      x_full[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
    }

    ReductionLanes<double> lanes(opts_.control, opts_.sdc.detect, monitor_);
    // The checkpoint is the outer state a rollback must restore exactly:
    // the double iterate and the ScaleGuard scale (the adaptive rung is
    // per-segment — AdaptiveGmresIr re-enters this solver per rung, so a
    // rollback never crosses a rung boundary).
    SdcRollback<double> rollback(opts_.sdc, sizeof(TLow), monitor_);
    double ckpt_scale = guard_ != nullptr ? guard_->scale() : 1.0;
    rollback.save(x_full);  // rollback target before the first checkpoint
    std::int64_t outer_cycle = 0;

    bool aborted = false;
    // An accepted candidate update below already carries the next cycle's
    // globally reduced ‖r‖² (and its residual, in r) out of the packed
    // candidate message, so the loop top skips the stand-alone
    // recomputation on that cycle.
    AlignedVector<double> x_next(x_full.size(), 0.0);
    double rho2 = 0.0;
    bool have_rho2 = false;
    while (result.iterations < opts_.max_iters) {
      const std::int64_t cycle = outer_cycle++;
      // Scripted value faults enter here, before the outer residual; a flip
      // at site `cycle` reaches the next measured ‖r‖² (this cycle's, or the
      // next one's when the candidate message carried it) deterministically.
      inject_faults(
          injector_, cycle,
          std::span<double>(x_full.data(), static_cast<std::size_t>(n)),
          *a_low_);
      // -- outer refinement step, REQUIRED double (alg. 3 line 7), with
      //    ‖r‖² folded into the residual sweep ---------------------------
      if (!have_rho2) {
        lanes.reduce(comm, {a_high_->residual_norm2_local(
                               comm, b,
                               std::span<double>(x_full.data(), x_full.size()),
                               std::span<double>(r.data(), r.size()))});
        rho2 = lanes[0];
      }
      have_rho2 = false;
      const double rho = std::sqrt(rho2);
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
        if (guard_ != nullptr) {
          guard_->restore(ckpt_scale);
          sync_operator_scale();
        }
        // Unconditional re-demotion repairs target:values corruption even
        // when the checkpointed scale equals the live one (where
        // set_value_scale would no-op).
        a_low_->redemote();
        mg_low_->redemote();
        continue;  // loop top recomputes ‖r‖² from the restored iterate
      }
      if (result.relative_residual < opts_.tol) {
        result.status = SolveStatus::Converged;
        break;
      }
      if (lanes.tripped()) {
        // x holds the last accepted iterate. A trip outranks a pending
        // observer promotion — the caller asked us to stop, not widen.
        result.status = trip_status(lanes.trip());
        break;
      }
      if (rollback.save_due(cycle, x_full)) {
        ckpt_scale = guard_ != nullptr ? guard_->scale() : 1.0;
      }
      // relative_residual is allreduce-derived, so the observer's decision
      // is rank-consistent without another collective.
      if (observer_ != nullptr &&
          observer_->observe_residual(result.relative_residual) ==
              CycleAction::Promote) {
        result.switch_requested = true;
        break;  // x_full is copied out below: the re-entry starts warm
      }
      // q1 = (TLow)(r / rho): one fused convert+scale pass (§3.2.5 — no
      // host round-trip, no separate conversion sweep).
      {
        ScopedMotif sm(stats_, Motif::Vector, scal_flops(n));
        auto q0 = q.column(0);
        const double inv = 1.0 / rho;
        const double* __restrict rv = r.data();
        TLow* __restrict qv = q0.data();
#pragma omp parallel for schedule(static)
        for (local_index_t i = 0; i < n; ++i) {
          qv[i] = static_cast<TLow>(rv[i] * inv);
        }
      }
      qr.reset(1.0);

      // -- inner GMRES cycle, all TLow (blue region of alg. 3) -------------
      int k_used = 0;
      bool basis_overflowed = false;
      for (int k = 0; k < m && result.iterations < opts_.max_iters; ++k) {
        mg_low_->apply(comm, q.column(k),
                       std::span<TLow>(z_full.data(), z_full.size()));
        auto w = q.column(k + 1);
        a_low_->spmv(comm, std::span<TLow>(z_full.data(), z_full.size()), w);

        // ‖w‖² folds into the second CGS2 projection pass (see
        // gemv_n_sub_norm).
        double beta_sq;
        {
          ScopedMotif sm(stats_, Motif::Ortho, cgs2_flops(n, k + 1));
          gemv_t(comm, q, k + 1, std::span<const TLow>(w.data(), w.size()),
                 std::span<TLow>(h1.data(), h1.size()));
          gemv_n_sub(q, k + 1, std::span<const TLow>(h1.data(), h1.size()), w);
          gemv_t(comm, q, k + 1, std::span<const TLow>(w.data(), w.size()),
                 std::span<TLow>(h2.data(), h2.size()));
          beta_sq = gemv_n_sub_norm(
              q, k + 1, std::span<const TLow>(h2.data(), h2.size()), w);
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
            scal(static_cast<TLow>(1.0 / beta), w);
          }
        }
        h[static_cast<std::size_t>(k) + 1] = beta;

        double rho_est;
        {
          // Givens QR on the host, redundantly per rank, in double.
          ScopedMotif sm(stats_, Motif::Other);
          rho_est = qr.insert_column(k, std::span<double>(h.data(), h.size())) *
                    rho;
        }
        // fp16's narrow exponent range can blow the inner basis up to
        // inf/NaN; a poisoned beta or Hessenberg column means this whole
        // cycle is garbage — hand control to the ScaleGuard.
        if (!std::isfinite(beta) || !std::isfinite(rho_est)) {
          basis_overflowed = true;
          break;
        }
        ++result.iterations;
        k_used = k + 1;
        if (rho_est / rho0 < opts_.tol || beta == 0.0) {
          break;
        }
      }
      // Bytes were streamed for every executed Arnoldi step whether or not
      // the cycle's correction is later accepted — record them all.
      if (observer_ != nullptr && k_used > 0) {
        observer_->observe_inner_iterations(k_used);
      }
      if (basis_overflowed) {
        // basis_overflowed is decided on allreduce-derived beta/rho_est, so
        // promotion (like the guard backoff below) is rank-consistent. A
        // promoting observer outranks the guard: widening the format fixes
        // the range problem outright instead of shifting the window.
        if (observer_ != nullptr &&
            observer_->observe_non_finite() == CycleAction::Promote) {
          result.switch_requested = true;
          break;  // x untouched; the cycle retries at the promoted format
        }
        if (guard_ == nullptr || guard_->exhausted()) {
          aborted = true;  // unrecoverable: stop burning the budget
          break;
        }
        (void)guard_->on_overflow();
        sync_operator_scale();
        continue;  // x is untouched; retry the outer step at smaller scale
      }
      if (k_used == 0) {
        break;
      }

      // -- correction: u = Q y (TLow), z = M⁻¹ u (TLow), then the REQUIRED
      //    double update x += rho · z (alg. 3 lines 45–47) -----------------
      {
        ScopedMotif sm(stats_, Motif::Other);
        qr.solve(k_used, std::span<double>(y.data(), y.size()));
        for (int j = 0; j < k_used; ++j) {
          y_t[static_cast<std::size_t>(j)] =
              static_cast<TLow>(y[static_cast<std::size_t>(j)]);
        }
      }
      {
        ScopedMotif sm(stats_, Motif::Ortho,
                       2 * static_cast<flop_count_t>(n) *
                           static_cast<flop_count_t>(k_used));
        gemv_n(q, k_used, std::span<const TLow>(y_t.data(), y_t.size()),
               std::span<TLow>(u.data(), u.size()));
      }
      mg_low_->apply(comm, std::span<const TLow>(u.data(), u.size()),
                     std::span<TLow>(z_full.data(), z_full.size()));
      // alpha compensates the guard's matrix demotion scale: the inner
      // cycle solved (alpha A) z = r/rho, so the correction is rho·alpha·z.
      const double alpha = guard_ != nullptr ? guard_->scale() : 1.0;
      // Apply the update to a candidate x_next (mixed-precision WAXPBY:
      // double x += rho·alpha·low z), evaluate its outer residual locally,
      // and let ONE packed reduction carry both the next cycle's ‖r‖² and
      // the finite vote: each rank contributes exactly 0.0 or 1.0, so all
      // ranks agree the correction is finite ⟺ sum == size(). Every rank
      // must agree on discarding a correction, or the SPMD ranks' collective
      // schedules (and the guard's uniform scale) would drift apart.
      {
        ScopedMotif sm(stats_, Motif::Vector, waxpby_flops(n));
        std::copy(x_full.begin(),
                  x_full.begin() + static_cast<std::ptrdiff_t>(n),
                  x_next.begin());
        axpy(rho * alpha,
             std::span<const TLow>(z_full.data(), static_cast<std::size_t>(n)),
             std::span<double>(x_next.data(), static_cast<std::size_t>(n)));
      }
      const double finite_local =
          all_finite(std::span<const TLow>(z_full.data(),
                                           static_cast<std::size_t>(n)))
              ? 1.0
              : 0.0;
      lanes.reduce(comm,
                   {a_high_->residual_norm2_local(
                        comm, b, std::span<double>(x_next.data(), x_next.size()),
                        std::span<double>(r.data(), r.size())),
                    finite_local});
      rho2 = lanes[0];
      if (lanes[1] != static_cast<double>(comm.size())) {
        // Non-finite correction: never fold it into x. Promote (observer),
        // back the scale off (guarded), or abandon the solve (unguarded).
        // r holds the discarded candidate's residual, but have_rho2 ==
        // false makes the loop top recompute both from x.
        if (observer_ != nullptr &&
            observer_->observe_non_finite() == CycleAction::Promote) {
          result.switch_requested = true;
          break;
        }
        if (guard_ == nullptr || guard_->exhausted()) {
          aborted = true;
          break;
        }
        (void)guard_->on_overflow();
        sync_operator_scale();
        continue;
      }
      std::swap(x_full, x_next);
      have_rho2 = true;
      if (guard_ != nullptr) {
        (void)guard_->on_good_cycle();
        sync_operator_scale();
      }
    }

    if (aborted) {
      // Guard exhausted or unguarded overflow: x was never poisoned, but no
      // further progress is possible at this format. The caller (service
      // RetryPolicy) can re-run at a promoted precision.
      result.status = SolveStatus::NonFinite;
    } else if (!result.converged() && !lanes.tripped() &&
               result.status != SolveStatus::Corrupted) {
      const double rho2_final = a_high_->residual_norm2(
          comm, b, std::span<double>(x_full.data(), x_full.size()),
          std::span<double>(r.data(), r.size()));
      result.relative_residual = std::sqrt(rho2_final) / rho0;
      result.status = result.relative_residual < opts_.tol
                          ? SolveStatus::Converged
                          : SolveStatus::Stagnated;
    }
    for (local_index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = x_full[static_cast<std::size_t>(i)];
    }
    return result;
  }

  /// Many-RHS entry point: solve the B columns of `b` sequentially against
  /// the same demoted operator/hierarchy state. Column j's iteration is the
  /// exact solve() sequence, so results are bitwise identical to B
  /// independent single-RHS calls; the batch amortizes generation,
  /// coloring, ELL packing and demotion across all B solves. (A ScaleGuard
  /// backoff triggered by column j does carry its smaller scale into
  /// column j+1 — identical to B sequential calls on shared operators.)
  std::vector<SolveResult> solve_many(Comm& comm, const MultiVector<double>& b,
                                      MultiVector<double>& x) {
    HPGMX_CHECK(b.cols() == x.cols());
    std::vector<SolveResult> results;
    results.reserve(static_cast<std::size_t>(b.cols()));
    for (int j = 0; j < b.cols(); ++j) {
      results.push_back(solve(comm, b.column(j), x.column(j)));
    }
    return results;
  }

 private:
  /// Bring the low-precision operators to the guard's current absolute
  /// scale. set_value_scale re-demotes from the double source and is
  /// idempotent, so the (usual) aliasing of a_low_ with the multigrid's
  /// fine-level operator cannot double-apply a scale change.
  void sync_operator_scale() {
    mg_low_->set_value_scale(guard_->scale());
    a_low_->set_value_scale(guard_->scale());
  }

  DistOperator<double>* a_high_;
  DistOperator<TLow>* a_low_;
  Multigrid<TLow>* mg_low_;
  SolverOptions opts_;
  MotifStats* stats_ = nullptr;
  ScaleGuard* guard_ = nullptr;
  InnerCycleObserver* observer_ = nullptr;
  SdcMonitor* monitor_ = nullptr;
  FaultInjector* injector_ = nullptr;
};

}  // namespace hpgmx
