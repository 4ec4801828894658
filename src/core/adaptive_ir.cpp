#include "core/adaptive_ir.hpp"

#include <cstddef>
#include <utility>

#include "core/bytes_model.hpp"
#include "core/gmres_ir.hpp"
#include "precision/scale_guard.hpp"

namespace hpgmx {

template <typename TLow>
struct AdaptiveGmresIr::Stack final : AdaptiveGmresIr::StackBase {
  Stack(const ProblemHierarchy& hierarchy, const BenchParams& params,
        const PrecisionSchedule& schedule, std::span<const double> level_max,
        DistOperator<double>* a_high, InnerCycleObserver* observer)
      : a_high_(a_high), observer_(observer) {
    // Same stack SolverService builds for a static run: guard anchored per
    // the schedule's reference rule, hierarchy demoted at the guard's scale.
    guard_.initialize(guard_reference_max_abs(level_max, schedule),
                      PrecisionTraits<TLow>::max_finite);
    mg_low_ = std::make_unique<Multigrid<TLow>>(hierarchy, params,
                                                /*tag_base=*/100,
                                                guard_.scale(), schedule,
                                                level_max);
  }

  SolveResult run(Comm& comm, std::span<const double> b, std::span<double> x,
                  const SolverOptions& opts, SdcMonitor* monitor,
                  FaultInjector* injector) override {
    GmresIr<TLow> solver(a_high_, &mg_low_->level_op(0), mg_low_.get(), opts);
    solver.set_scale_guard(&guard_);
    solver.set_cycle_observer(observer_);
    solver.set_sdc(monitor);
    solver.set_fault_injector(injector);
    return solver.solve(comm, b, x);
  }

  DistOperator<double>* a_high_;
  InnerCycleObserver* observer_;
  ScaleGuard guard_;
  std::unique_ptr<Multigrid<TLow>> mg_low_;
};

AdaptiveGmresIr::AdaptiveGmresIr(const ProblemHierarchy& hierarchy,
                                 const BenchParams& params, SolverOptions opts,
                                 std::span<const double> level_max)
    : hierarchy_(hierarchy),
      params_(params),
      opts_(opts),
      level_max_(level_max.empty()
                     ? hierarchy_level_max_abs(hierarchy)
                     : std::vector<double>(level_max.begin(),
                                           level_max.end())),
      dims_(hierarchy_level_dims(hierarchy)),
      ctrl_(params.adaptive.enabled
                ? PrecisionController(params.adaptive, params.scenario.kind)
                : PrecisionController::recorder(
                      params.precision_schedule.empty()
                          ? PrecisionSchedule{{params.inner_precision}}
                          : params.precision_schedule)),
      a_high_(hierarchy.levels[0].a, hierarchy.structures[0].get(), params.opt,
              /*tag=*/90) {}

AdaptiveGmresIr::~AdaptiveGmresIr() = default;

PrecisionSchedule AdaptiveGmresIr::stack_schedule() const {
  // Disabled controllers run the configured static schedule verbatim —
  // including the empty (uniform) case, whose guard reference is the whole
  // hierarchy rather than the fine level. Substituting the recorder's
  // single-entry schedule here would silently change that anchoring.
  return ctrl_.enabled() ? ctrl_.schedule() : params_.precision_schedule;
}

void AdaptiveGmresIr::ensure_stack() {
  if (stack_ != nullptr && stack_rung_ == ctrl_.rung()) {
    return;
  }
  const PrecisionSchedule schedule = stack_schedule();
  dispatch_precision(ctrl_.current(), [&](auto tag) {
    using TLow = typename decltype(tag)::type;
    stack_ = std::make_unique<Stack<TLow>>(
        hierarchy_, params_, schedule,
        std::span<const double>(level_max_.data(), level_max_.size()),
        &a_high_, &ctrl_);
  });
  stack_rung_ = ctrl_.rung();
}

SolveResult AdaptiveGmresIr::solve(Comm& comm, std::span<const double> b,
                                   std::span<double> x) {
  ctrl_.begin_solve();
  SolveResult total;
  int budget = opts_.max_iters;
  bool continuation = false;
  // Each pass is one format segment; a switch_requested exit implies the
  // controller just promoted, so the loop runs at most ladder-size times.
  while (true) {
    ensure_stack();
    SolverOptions o = opts_;
    o.max_iters = budget;
    const SolveResult seg = stack_->run(comm, b, x, o, monitor_, injector_);
    total.iterations += seg.iterations;
    total.recoveries += seg.recoveries;
    total.status = seg.status;
    total.relative_residual = seg.relative_residual;
    total.final_precision = seg.final_precision;
    if (opts_.track_history) {
      // A continuation segment re-measures the junction residual at the
      // warm x its predecessor left behind — drop the duplicate entry so
      // the spliced history reads like a single solve.
      const std::ptrdiff_t skip =
          (continuation && !seg.history.empty()) ? 1 : 0;
      total.history.insert(total.history.end(), seg.history.begin() + skip,
                           seg.history.end());
    }
    budget -= seg.iterations;
    if (!seg.switch_requested || seg.converged() || budget <= 0) {
      break;
    }
    continuation = true;
  }
  return total;
}

std::vector<SolveResult> AdaptiveGmresIr::solve_many(Comm& comm,
                                                     const MultiVector<double>& b,
                                                     MultiVector<double>& x) {
  HPGMX_CHECK(b.cols() == x.cols());
  std::vector<SolveResult> results;
  results.reserve(static_cast<std::size_t>(b.cols()));
  for (int j = 0; j < b.cols(); ++j) {
    results.push_back(solve(comm, b.column(j), x.column(j)));
  }
  return results;
}

double AdaptiveGmresIr::realized_bytes() const {
  double total = 0.0;
  const int nl = static_cast<int>(dims_.size());
  for (const CycleRecord& rec : ctrl_.records()) {
    const PrecisionSchedule sched = ctrl_.enabled()
                                        ? ctrl_.schedule_for(rec.rung)
                                        : params_.precision_schedule;
    const std::vector<std::size_t> widths =
        schedule_value_bytes(sched, nl, rec.precision);
    total += static_cast<double>(rec.inner_iterations) *
             ir_inner_iteration_bytes(
                 std::span<const MgLevelDims>(dims_.data(), dims_.size()),
                 std::span<const std::size_t>(widths.data(), widths.size()));
  }
  return total;
}

}  // namespace hpgmx
