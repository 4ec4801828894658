// Rank-consistent cooperative cancellation and deadlines.
//
// The hard problem is not noticing that time ran out — it is making P SPMD
// ranks agree to stop at the SAME iteration, or their collective schedules
// deadlock (rank 0 exits while rank 1 posts the next allreduce). The trick,
// shared with the PR 6 finite-vote: a rank never acts on its own clock or
// token read. Each rank contributes a small "trip lane" value to a scalar
// Sum-allreduce the solver was already doing (CG's packed ‖r‖²/⟨r,z⟩
// message, GMRES-IR's candidate-accept message, GMRES's cycle-top norm) and
// every rank decodes the SAME reduced sum — zero new collectives, and the
// stop decision is bitwise-uniform by construction even under clock skew.
//
// Encoding (Sum over P ranks, each lane value a small exact integer):
//   0             — this rank sees no trip
//   1             — this rank's deadline expired
//   P + 1         — this rank saw the cancellation token
// A deadline-only sum is at most P < P+1, so the reduced value S decodes
// unambiguously: S == 0 none, S >= P+1 cancelled (cancellation outranks the
// deadline), anything else deadline. Exact in double (and in float for
// P < 2^22), so the decode is itself deterministic.
//
// A default SolveControl is inert: with no deadline or token attached the
// solvers' ReductionLanes (core/reduction_lanes.hpp) send only their
// payload (same messages, same bytes, same bits).
#pragma once

#include <atomic>
#include <chrono>
#include <limits>

#include "base/solve_status.hpp"

namespace hpgmx {

/// Sticky cooperative cancellation flag, safe to trip from any thread.
/// Solvers only ever read it; the trip becomes effective at the next
/// reduction that carries the trip lane.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A monotonic-clock deadline (same steady_clock as WallTimer). Default is
/// "never": finite() is false and expired() never trips.
class Deadline {
 public:
  Deadline() = default;

  [[nodiscard]] static Deadline never() { return Deadline{}; }

  /// Deadline `seconds` from now; non-positive values are already expired.
  [[nodiscard]] static Deadline after(double seconds) {
    Deadline d;
    d.finite_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  [[nodiscard]] bool finite() const { return finite_; }
  [[nodiscard]] bool expired() const {
    return finite_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Seconds until expiry (negative once expired); +inf for never().
  [[nodiscard]] double remaining_seconds() const {
    if (!finite_) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double>(at_ -
                                         std::chrono::steady_clock::now())
        .count();
  }

 private:
  bool finite_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Why a solve's trip lane fired.
enum class TripCause { None, DeadlineExpired, Cancelled };

[[nodiscard]] constexpr SolveStatus trip_status(TripCause c) {
  switch (c) {
    case TripCause::DeadlineExpired:
      return SolveStatus::DeadlineExceeded;
    case TripCause::Cancelled:
      return SolveStatus::Cancelled;
    case TripCause::None:
      break;
  }
  return SolveStatus::Stagnated;  // not a trip; callers never map None
}

/// The per-solve control block: an optional shared token plus a deadline,
/// passed by value inside SolverOptions. Both monotone (a trip never
/// un-trips), so re-evaluating the lane on a later reduction can only move
/// from "no trip" toward "tripped" — a discarded GMRES-IR candidate that
/// re-reduces at the loop top cannot lose a trip.
struct SolveControl {
  const CancelToken* cancel = nullptr;  ///< not owned; may be null
  Deadline deadline{};                  ///< never() by default

  /// Whether any control is attached. When false, solvers take their
  /// control-free code paths and the iteration is bitwise identical to a
  /// build without this header.
  [[nodiscard]] bool active() const {
    return cancel != nullptr || deadline.finite();
  }

  /// This rank's trip-lane contribution for a Sum-allreduce over
  /// `comm_size` ranks (see the encoding table above).
  [[nodiscard]] double trip_lane(int comm_size) const {
    if (cancel != nullptr && cancel->cancelled()) {
      return static_cast<double>(comm_size) + 1.0;
    }
    if (deadline.expired()) {
      return 1.0;
    }
    return 0.0;
  }

  /// Decode the Sum-reduced lane. Every rank decodes the same reduced
  /// value, so the returned cause is rank-uniform.
  [[nodiscard]] static TripCause decode_trip(double reduced_sum,
                                             int comm_size) {
    if (reduced_sum >= static_cast<double>(comm_size) + 1.0) {
      return TripCause::Cancelled;
    }
    if (reduced_sum > 0.0) {
      return TripCause::DeadlineExpired;
    }
    return TripCause::None;
  }
};

}  // namespace hpgmx
