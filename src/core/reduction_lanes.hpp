// Control plumbing shared by the Krylov solvers (Gmres, GmresIr, CG):
//
//   ReductionLanes — one packed Sum-allreduce per decision point. The solver
//                    contributes its payload partials; the optional
//                    deadline/cancel trip lane (base/cancel.hpp) and SDC
//                    verdict lane (base/fault.hpp) ride the same message and
//                    are decoded here.
//   SdcRollback    — the checkpoint / growth-verdict / recovery-budget
//                    bookkeeping of SDC recovery.
//   inject_faults  — the scripted value-fault site at the top of an outer
//                    step.
//
// Lanes reduce elementwise in rank order, so each payload entry is
// bit-identical to its stand-alone reduction and every decoded decision is
// allreduce-derived, hence rank-uniform: all ranks trip, roll back or give up
// at the same step. With no control attached and detection off only the
// payload travels — a single-scalar site sends exactly what
// Comm::allreduce_scalar sends, so the solver's message schedule and bits are
// those of a build without control or detection.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>

#include "base/aligned_vector.hpp"
#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/fault.hpp"
#include "comm/comm.hpp"
#include "core/dist_operator.hpp"

namespace hpgmx {

/// One packed reduction per solver decision point, in communication
/// precision T. Trip and verdict persist until the next reduce(), so a
/// solver may act on them one step later (GmresIr's candidate message feeds
/// the next cycle's checks).
template <typename T>
class ReductionLanes {
 public:
  /// Largest payload one site packs (CG: ‖r‖², ⟨r,z⟩, audit ‖b − A·x‖²).
  static constexpr std::size_t kMaxPayload = 3;

  /// With detection on and `monitor` null this rank's verdict lane carries
  /// 0; the lane is still sent so every rank posts the same message length.
  ReductionLanes(const SolveControl& control, bool sdc_detect,
                 const SdcMonitor* monitor)
      : control_(control),
        control_active_(control.active()),
        sdc_detect_(sdc_detect),
        monitor_(monitor) {}

  /// Sum-reduce this rank's payload partials plus the active control lanes
  /// in one allreduce, then decode trip and verdict. Read the reduced
  /// payload back with operator[].
  void reduce(Comm& comm, std::initializer_list<T> payload) {
    HPGMX_CHECK(payload.size() <= kMaxPayload);
    std::array<T, kMaxPayload + 2> local{};
    std::size_t lanes = 0;
    for (const T v : payload) {
      local[lanes++] = v;
    }
    if (control_active_) {
      local[lanes++] = static_cast<T>(control_.trip_lane(comm.size()));
    }
    if (sdc_detect_) {
      local[lanes++] =
          static_cast<T>(monitor_ != nullptr ? monitor_->lane() : 0.0);
    }
    comm.allreduce(std::span<const T>(local.data(), lanes),
                   std::span<T>(global_.data(), lanes), ReduceOp::Sum);
    std::size_t gi = payload.size();
    if (control_active_) {
      trip_ = SolveControl::decode_trip(static_cast<double>(global_[gi++]),
                                        comm.size());
    }
    if (sdc_detect_) {
      flagged_ = SdcMonitor::decode(static_cast<double>(global_[gi]));
    }
  }

  /// Reduced payload entry i of the last reduce().
  [[nodiscard]] T operator[](std::size_t i) const { return global_[i]; }

  /// Trip decoded from the last reduce() (None without control).
  [[nodiscard]] TripCause trip() const { return trip_; }
  [[nodiscard]] bool tripped() const { return trip_ != TripCause::None; }

  /// Did any rank's monitor report a checksum mismatch in the last reduce()?
  [[nodiscard]] bool flagged() const { return flagged_; }

 private:
  SolveControl control_;
  bool control_active_;
  bool sdc_detect_;
  const SdcMonitor* monitor_;
  std::array<T, kMaxPayload + 2> global_{};
  TripCause trip_ = TripCause::None;
  bool flagged_ = false;
};

/// Checkpoint and recovery budget of SDC rollback for an outer iterate of
/// element type V. Every method is a no-op or false with detection off, so
/// solvers call them unconditionally. Inputs to every decision are
/// allreduce-derived, so all ranks save, roll back and exhaust together.
template <typename V>
class SdcRollback {
 public:
  /// `value_bytes` is the working format's width (16-bit formats get more
  /// growth headroom, see sdc_growth_threshold).
  SdcRollback(const SdcPolicy& policy, std::size_t value_bytes,
              SdcMonitor* monitor)
      : policy_(policy),
        growth_limit_(sdc_growth_threshold(policy, value_bytes)),
        monitor_(monitor) {}

  [[nodiscard]] bool active() const { return policy_.detect; }

  /// Make `x` the rollback target.
  void save(const AlignedVector<V>& x) {
    if (policy_.detect) {
      ckpt_ = x;
    }
  }

  /// save() on the policy's checkpoint cadence; returns whether it saved.
  bool save_due(std::int64_t cycle, const AlignedVector<V>& x) {
    if (!policy_.detect || cycle % policy_.checkpoint_interval != 0) {
      return false;
    }
    ckpt_ = x;
    return true;
  }

  /// GMRES(-IR) cycle-top verdict: a checksum flag, a non-finite norm, or
  /// growth past the format-aware threshold over the best clean residual
  /// makes the measurement untrustworthy, including an apparent
  /// convergence. A clean measurement lowers the baseline.
  [[nodiscard]] bool suspect(bool flagged, double rho, double rel) {
    if (!policy_.detect) {
      return false;
    }
    const bool verdict = flagged || !std::isfinite(rho) ||
                         (std::isfinite(best_rel_) &&
                          rel > growth_limit_ * best_rel_);
    if (!verdict) {
      best_rel_ = std::min(best_rel_, rel);
    }
    return verdict;
  }

  /// Spend one recovery and restore the checkpoint into `x`, acknowledging
  /// the monitor's flag. Returns false, restoring nothing, once `recoveries`
  /// exceeds the budget — the caller stops with SolveStatus::Corrupted.
  [[nodiscard]] bool restore(int& recoveries, AlignedVector<V>& x) {
    ++recoveries;
    if (recoveries > policy_.max_recoveries) {
      return false;
    }
    x = ckpt_;
    if (monitor_ != nullptr) {
      monitor_->clear();
    }
    // The rolled-back residual legitimately jumps back up; the growth
    // baseline must be re-earned, not inherited.
    best_rel_ = std::numeric_limits<double>::infinity();
    return true;
  }

 private:
  SdcPolicy policy_;
  double growth_limit_;
  SdcMonitor* monitor_;
  AlignedVector<V> ckpt_;
  double best_rel_ = std::numeric_limits<double>::infinity();
};

/// The scripted value-fault site at the top of outer step `site`: a bit flip
/// in the owned iterate (target:vec) or in `op`'s stored nonzeros
/// (target:values). No-op without an injector.
template <typename V, typename TOp>
void inject_faults(FaultInjector* injector, std::int64_t site,
                   std::span<V> iterate, DistOperator<TOp>& op) {
  if (injector == nullptr) {
    return;
  }
  injector->maybe_flip(FaultTarget::Vec, std::as_writable_bytes(iterate),
                       sizeof(V), site);
  std::uint64_t value_draw = 0;
  std::uint64_t bit_draw = 0;
  if (injector->maybe_draw(FaultTarget::Values, site, &value_draw,
                           &bit_draw)) {
    op.corrupt_value_bit(value_draw, bit_draw, injector->config().bit);
  }
}

}  // namespace hpgmx
