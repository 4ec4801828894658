// Adaptive-precision GMRES-IR driver: GmresIr re-entered across precision
// promotions.
//
// GmresIr<TLow> is compiled for one storage format; a promotion decision by
// the PrecisionController therefore cannot be acted on inside a solve — the
// solver stops with SolveResult::switch_requested and a warm iterate, and
// something has to rebuild the low-precision stack (ScaleGuard + demoted
// Multigrid hierarchy) at the promoted format and re-enter. AdaptiveGmresIr
// is that something: it owns the controller, the format-independent double
// operator, and the current rung's stack, and splices the per-format solve
// segments into one SolveResult indistinguishable from a single solve
// (monotone history, cumulative Arnoldi count, final true residual).
//
// With the controller disabled (HPGMX_ADAPTIVE=off) the driver builds the
// exact static stack SolverService builds — same guard reference, same
// (possibly empty) schedule — and attaches only a passive recorder, so the
// iteration is bit-identical to the plain GmresIr path while still
// reporting the realized per-cycle formats (ServiceResult's
// realized_precisions and the exhibits' byte accounting).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "blas/multivector.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "precision/adaptive_controller.hpp"

namespace hpgmx {

class AdaptiveGmresIr {
 public:
  /// `hierarchy` must outlive the driver (params are copied). `level_max`
  /// is the per-level max|A| the demotion scales are chosen from — pass the
  /// globally reduced vector on multi-rank worlds (OperatorCache entries
  /// carry it); empty computes this rank's local maxima, which is exact on
  /// a single-rank world.
  AdaptiveGmresIr(const ProblemHierarchy& hierarchy, const BenchParams& params,
                  SolverOptions opts, std::span<const double> level_max = {});
  ~AdaptiveGmresIr();

  AdaptiveGmresIr(const AdaptiveGmresIr&) = delete;
  AdaptiveGmresIr& operator=(const AdaptiveGmresIr&) = delete;

  /// One right-hand side: GmresIr::solve re-entered across promotions
  /// under one shared iteration budget (opts.max_iters total Arnoldi
  /// steps). The returned result never carries switch_requested — every
  /// requested switch was serviced internally.
  SolveResult solve(Comm& comm, std::span<const double> b,
                    std::span<double> x);

  /// Column-sequential batch, like GmresIr::solve_many. The controller's
  /// rung persists across columns (promotion is knowledge about the
  /// operator); its contraction baseline resets per column.
  std::vector<SolveResult> solve_many(Comm& comm, const MultiVector<double>& b,
                                      MultiVector<double>& x);

  /// The controller (rung trajectory, per-cycle records, promotions).
  [[nodiscard]] const PrecisionController& controller() const { return ctrl_; }

  /// Attach the per-rank SDC monitor / fault injector; forwarded into every
  /// rung's GmresIr stack (survives promotions — Stack::run re-attaches).
  void set_sdc(SdcMonitor* monitor) { monitor_ = monitor; }
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Modeled main-memory bytes of every inner cycle executed so far: each
  /// CycleRecord charged ir_inner_iteration_bytes at the schedule its rung
  /// actually ran (per-level value widths + the runtime ELL index widths).
  /// This is the quantity exp_adaptive gates against the static schedules.
  [[nodiscard]] double realized_bytes() const;

 private:
  /// Type-erased low-precision stack of one rung: ScaleGuard + demoted
  /// Multigrid, rebuilt only when the controller changes rung.
  struct StackBase {
    virtual ~StackBase() = default;
    virtual SolveResult run(Comm& comm, std::span<const double> b,
                            std::span<double> x, const SolverOptions& opts,
                            SdcMonitor* monitor, FaultInjector* injector) = 0;
  };
  template <typename TLow>
  struct Stack;

  /// Schedule the current stack must be built from (the rung schedule when
  /// adaptive, the configured static schedule — possibly empty — when not).
  [[nodiscard]] PrecisionSchedule stack_schedule() const;
  void ensure_stack();

  const ProblemHierarchy& hierarchy_;
  BenchParams params_;
  SolverOptions opts_;
  std::vector<double> level_max_;
  std::vector<MgLevelDims> dims_;
  PrecisionController ctrl_;
  DistOperator<double> a_high_;
  std::unique_ptr<StackBase> stack_;
  int stack_rung_ = -1;
  SdcMonitor* monitor_ = nullptr;
  FaultInjector* injector_ = nullptr;
};

}  // namespace hpgmx
