// Adaptive per-iteration precision control for GMRES-IR.
//
// The paper's thesis is that memory traffic, not flops, bounds HPG-MxP —
// so the byte-optimal inner format is the *lowest one that still
// converges*, which is a property of the operator observed at run time,
// not of a static config. PrecisionController is the deterministic state
// machine that discovers it: each outer IR cycle runs in the current rung
// of a promotion ladder (starting at the cheapest rung that can win — see
// AdaptiveConfig::start), the controller watches the measured
// outer-residual contraction per cycle,
// and when contraction stagnates — Carson's promote-on-stagnation
// criterion (Balancing Inexactness in Mixed Precision Matrix
// Computations) — it promotes to the next (wider) rung. Non-finite growth
// in the inner basis promotes immediately. There is no demotion: a rung
// that has been observed to stagnate once would stagnate again at the
// same residual magnitude, so the ladder is climbed monotonically.
//
// The controller is the promotion half of the AMP scaler pattern whose
// backoff/regrowth half already lives in scale_guard.hpp: ScaleGuard moves
// the *exponent window* of one fixed format, the controller moves the
// *format* itself. Both are driven exclusively by rank-consistent
// (allreduce-derived or collectively voted) observations, so every SPMD
// rank takes identical transitions without extra communication.
//
// The state machine is pure: it never touches a solver. GmresIr reports
// observations through the InnerCycleObserver interface; the
// tests/precision_oracle.hpp harness drives the same interface with
// scripted residual trajectories, which is how stagnation, recovery, and
// non-finite paths are unit-tested without running a solve.
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "grid/scenario.hpp"
#include "precision/precision.hpp"

namespace hpgmx {

/// Configuration of the adaptive controller (HPGMX_ADAPTIVE* knobs).
struct AdaptiveConfig {
  /// Master switch (HPGMX_ADAPTIVE=on|off). Off is bit-identical to the
  /// static inner_precision / precision_schedule path.
  bool enabled = false;
  /// A cycle whose outer contraction rho_new/rho_prev lands at or above
  /// this is stagnant (HPGMX_ADAPTIVE_THRESHOLD; 1.0 = only literal
  /// non-progress). The default 1e-3 calls a cycle stagnant when it
  /// recovers fewer than three decimal digits: a format whose roundoff
  /// floor limits the cycle (bf16 here measures ~1.8 digits/cycle) sits
  /// well above it, a healthy format (fp32, ~4.5 digits/cycle) well below
  /// — ~30x margin to each regime on the catalog operators.
  double stagnation_threshold = 1e-3;
  /// Consecutive stagnant cycles tolerated before promoting
  /// (HPGMX_ADAPTIVE_PATIENCE). One good cycle resets the count.
  int patience = 2;
  /// Promotion ladder, cheapest rung first, strictly widening
  /// (HPGMX_ADAPTIVE_LADDER, schedule syntax, e.g. "fp16,bf16,fp32").
  /// Rung order is fp16 < bf16 < fp32 < fp64: bf16 has fp32's exponent
  /// range (the robustness axis that matters for promotion), fp16 only
  /// better roundoff.
  std::vector<Precision> ladder = {Precision::Bf16, Precision::Fp32,
                                   Precision::Fp64};
  /// Starting rung override (HPGMX_ADAPTIVE_START, must name a ladder
  /// entry). Unset = the measured auto rule: prefer the fp32 rung when the
  /// ladder has one — per the realized-bytes model a 16-bit inner step buys
  /// ~0.5x the contraction of an fp32 step for ~0.74x the bytes (the
  /// 32-bit column indices do not shrink: a bf16 SpMV row models 166 B
  /// against fp32's 224 B), a net loss at any tolerance
  /// (docs/PRECISION_POLICY.md; it is why the paper benchmarks fp32 inner
  /// solves) — so fp32 is the cheapest rung that can win. An all-sub-fp32
  /// ladder is explicitly exploratory: it starts at ladder.front(), except
  /// the low-precision stress scenarios (jump, stretched) start one rung
  /// higher — their contraction at the cheapest rung is known-poor, so
  /// starting there only burns cycles the controller would spend
  /// discovering the promotion.
  std::optional<Precision> start;

  /// Promotion rank of `p` within the ladder ordering above.
  [[nodiscard]] static int rung_order(Precision p) {
    switch (p) {
      case Precision::Fp16: return 0;
      case Precision::Bf16: return 1;
      case Precision::Fp32: return 2;
      case Precision::Fp64: return 3;
    }
    return 3;
  }

  /// Throws unless the config is usable: non-empty strictly-widening
  /// ladder, threshold > 0, patience >= 1, start (when set) on the ladder.
  void validate() const;

  /// The rung this config starts `scenario` at (scenario-aware default).
  [[nodiscard]] int start_rung(Scenario scenario) const;

  /// Canonical text form, stable across runs — part of the problem
  /// descriptor's cache identity ("off", or
  /// "on(th=0.001,pat=2,ladder=bf16,fp32,fp64,start=auto)").
  [[nodiscard]] std::string to_string() const;

  /// HPGMX_ADAPTIVE (on|off|1|0), HPGMX_ADAPTIVE_THRESHOLD,
  /// HPGMX_ADAPTIVE_PATIENCE, HPGMX_ADAPTIVE_LADDER,
  /// HPGMX_ADAPTIVE_START overrides. Throws on unparseable values.
  [[nodiscard]] static AdaptiveConfig from_env();

  friend bool operator==(const AdaptiveConfig&, const AdaptiveConfig&) =
      default;
};

/// What a cycle observation asks the solver to do next.
enum class CycleAction {
  Continue,  ///< keep iterating in the current format
  Promote,   ///< stop; the caller re-enters at the promoted format
};

/// Observation interface GmresIr reports through (and the scripted-residual
/// oracle drives in tests). Every call site in the solver is reached only
/// after a rank-consistent (allreduce-derived or collectively voted)
/// detection, so implementations may change state without communicating.
class InnerCycleObserver {
 public:
  virtual ~InnerCycleObserver() = default;
  /// Outer relative residual at the top of each refinement cycle (the
  /// first call of a solve is the baseline). Promote aborts the solve
  /// with SolveResult::switch_requested; x keeps its warm value.
  virtual CycleAction observe_residual(double relative_residual) = 0;
  /// A completed inner GMRES cycle of `k` Arnoldi steps (bytes were
  /// streamed whether or not the correction is later accepted).
  virtual void observe_inner_iterations(int k) = 0;
  /// Rank-consistent non-finite detection in the inner basis or the
  /// correction. Promote abandons the cycle (x untouched); Continue hands
  /// the overflow to the ScaleGuard exactly as without an observer.
  virtual CycleAction observe_non_finite() = 0;
};

/// One executed inner cycle: which rung ran it and how many Arnoldi steps
/// it took — the input of the realized-bytes model.
struct CycleRecord {
  int rung = 0;
  Precision precision = Precision::Fp32;
  int inner_iterations = 0;
};

/// The promote-on-stagnation state machine. Deterministic: transitions
/// depend only on the observation sequence, so identical runs produce
/// identical format sequences (asserted by tests/test_adaptive.cpp).
class PrecisionController : public InnerCycleObserver {
 public:
  PrecisionController() = default;

  /// Adaptive controller for `cfg` solving `scenario` (picks the
  /// scenario-aware start rung). cfg.validate() must hold.
  explicit PrecisionController(AdaptiveConfig cfg,
                               Scenario scenario = Scenario::Poisson)
      : cfg_(std::move(cfg)), rung_(cfg_.start_rung(scenario)) {
    cfg_.validate();
  }

  /// Passive recorder pinned to a static `schedule` (non-empty): observes
  /// and records cycles but never promotes. This is what static solver
  /// paths attach so ServiceResult can carry a realized format sequence,
  /// and what exp_adaptive uses to model static-schedule bytes.
  [[nodiscard]] static PrecisionController recorder(PrecisionSchedule schedule);

  [[nodiscard]] const AdaptiveConfig& config() const { return cfg_; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }

  /// Format of the current rung — what the next cycle dispatches on.
  [[nodiscard]] Precision current() const {
    return pinned_.empty() ? cfg_.ladder[static_cast<std::size_t>(rung_)]
                           : pinned_.entry();
  }
  [[nodiscard]] int rung() const { return rung_; }
  [[nodiscard]] bool at_top() const {
    return !pinned_.empty() ||
           rung_ + 1 >= static_cast<int>(cfg_.ladder.size());
  }

  /// Per-level multigrid schedule of rung `r`: the rung's format on the
  /// fine (entry) level; coarse levels narrow to bf16 whenever the rung
  /// is wider (coarse-grid roundoff is attenuated by fine smoothing —
  /// the progressive-precision result the static schedules established),
  /// and stay uniform for the 16-bit rungs. A pinned recorder returns its
  /// static schedule regardless of `r`.
  [[nodiscard]] PrecisionSchedule schedule_for(int r) const;
  /// Schedule of the current rung.
  [[nodiscard]] PrecisionSchedule schedule() const {
    return schedule_for(rung_);
  }

  /// Reset the contraction baseline at a solve (or RHS-batch-column)
  /// boundary. The rung is retained: promotion is knowledge about the
  /// operator, not about one right-hand side.
  void begin_solve() {
    prev_residual_.reset();
    stagnant_ = 0;
  }

  // -- InnerCycleObserver ---------------------------------------------------
  CycleAction observe_residual(double relative_residual) override;
  void observe_inner_iterations(int k) override {
    records_.push_back(CycleRecord{rung_, current(), k});
  }
  CycleAction observe_non_finite() override;

  /// Every executed cycle, in order, across all solves this controller
  /// observed (rung + format + Arnoldi steps).
  [[nodiscard]] const std::vector<CycleRecord>& records() const {
    return records_;
  }
  /// The realized per-cycle format sequence (records(), formats only).
  [[nodiscard]] std::vector<Precision> realized() const {
    std::vector<Precision> out;
    out.reserve(records_.size());
    for (const CycleRecord& r : records_) {
      out.push_back(r.precision);
    }
    return out;
  }
  [[nodiscard]] int promotions() const { return promotions_; }

 private:
  /// Climb one rung (never called at the top). Resets the contraction
  /// baseline: the first cycle in the new format re-establishes it.
  void promote() {
    ++rung_;
    ++promotions_;
    prev_residual_.reset();
    stagnant_ = 0;
  }

  AdaptiveConfig cfg_;
  /// Non-empty: a recorder pinned to this static schedule.
  PrecisionSchedule pinned_;
  int rung_ = 0;
  int stagnant_ = 0;
  int promotions_ = 0;
  std::optional<double> prev_residual_;
  std::vector<CycleRecord> records_;
};

}  // namespace hpgmx
