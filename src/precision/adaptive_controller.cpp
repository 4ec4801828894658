#include "precision/adaptive_controller.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/options.hpp"

namespace hpgmx {

void AdaptiveConfig::validate() const {
  HPGMX_CHECK_MSG(!ladder.empty(), "adaptive ladder must not be empty");
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    HPGMX_CHECK_MSG(
        rung_order(ladder[i]) > rung_order(ladder[i - 1]),
        "adaptive ladder must widen strictly (fp16<bf16<fp32<fp64), got "
            << precision_name(ladder[i - 1]) << " -> "
            << precision_name(ladder[i]));
  }
  HPGMX_CHECK_MSG(stagnation_threshold > 0.0,
                  "HPGMX_ADAPTIVE_THRESHOLD must be positive, got "
                      << stagnation_threshold);
  HPGMX_CHECK_MSG(patience >= 1,
                  "HPGMX_ADAPTIVE_PATIENCE must be >= 1, got " << patience);
  if (start.has_value()) {
    HPGMX_CHECK_MSG(std::find(ladder.begin(), ladder.end(), *start) !=
                        ladder.end(),
                    "HPGMX_ADAPTIVE_START="
                        << precision_name(*start)
                        << " is not on the ladder (HPGMX_ADAPTIVE_LADDER)");
  }
}

int AdaptiveConfig::start_rung(Scenario scenario) const {
  if (start.has_value()) {
    const auto it = std::find(ladder.begin(), ladder.end(), *start);
    HPGMX_CHECK(it != ladder.end());
    return static_cast<int>(it - ladder.begin());
  }
  // Auto: fp32 is the measured knee of contraction-per-byte (a 16-bit step
  // recovers ~half the digits of an fp32 step for ~0.74x its bytes — only
  // the values narrow, the 32-bit column indices do not — so a 16-bit rung
  // loses end-to-end at any tolerance) — start there whenever the ladder
  // offers it.
  const auto fp32 = std::find(ladder.begin(), ladder.end(), Precision::Fp32);
  if (fp32 != ladder.end()) {
    return static_cast<int>(fp32 - ladder.begin());
  }
  // All-sub-fp32 ladder: exploratory by construction. Scenario-aware
  // default (ROADMAP item 4): jump/stretched operators are the known
  // low-precision stressors — start them one rung up rather than spending
  // `patience` stagnant cycles rediscovering it per solve.
  const bool stressed =
      scenario == Scenario::Jump || scenario == Scenario::Stretched;
  const int top = static_cast<int>(ladder.size()) - 1;
  return stressed ? std::min(1, top) : 0;
}

std::string AdaptiveConfig::to_string() const {
  if (!enabled) {
    return "off";
  }
  char head[64];
  std::snprintf(head, sizeof(head), "on(th=%.17g,pat=%d,ladder=",
                stagnation_threshold, patience);
  std::string out(head);
  out += PrecisionSchedule{ladder}.to_string();
  out += ",start=";
  out += start.has_value() ? precision_name(*start) : "auto";
  out += ')';
  return out;
}

AdaptiveConfig AdaptiveConfig::from_env() {
  AdaptiveConfig cfg;
  if (const auto raw = env_string("HPGMX_ADAPTIVE"); raw.has_value()) {
    if (*raw == "on" || *raw == "1") {
      cfg.enabled = true;
    } else if (*raw == "off" || *raw == "0") {
      cfg.enabled = false;
    } else {
      HPGMX_CHECK_MSG(false, "HPGMX_ADAPTIVE='" << *raw
                                                << "' is not a switch "
                                                   "(on|off|1|0)");
    }
  }
  cfg.stagnation_threshold =
      env_double_or("HPGMX_ADAPTIVE_THRESHOLD", cfg.stagnation_threshold);
  cfg.patience = static_cast<int>(
      env_int_or("HPGMX_ADAPTIVE_PATIENCE", cfg.patience));
  if (const auto raw = env_string("HPGMX_ADAPTIVE_LADDER");
      raw.has_value() && !raw->empty()) {
    const auto parsed = parse_precision_schedule(*raw);
    HPGMX_CHECK_MSG(parsed.has_value(),
                    "HPGMX_ADAPTIVE_LADDER='"
                        << *raw << "' is not a comma-separated list of "
                        << kPrecisionTokens << " tokens");
    cfg.ladder = parsed->levels;
  }
  if (const auto raw = env_string("HPGMX_ADAPTIVE_START");
      raw.has_value() && !raw->empty()) {
    const auto parsed = parse_precision(*raw);
    HPGMX_CHECK_MSG(parsed.has_value(),
                    "HPGMX_ADAPTIVE_START='" << *raw
                                             << "' is not a precision "
                                                "(accepted: "
                                             << kPrecisionTokens << ")");
    cfg.start = *parsed;
  }
  cfg.validate();
  return cfg;
}

PrecisionController PrecisionController::recorder(PrecisionSchedule schedule) {
  HPGMX_CHECK_MSG(!schedule.empty(),
                  "recorder controller needs a non-empty schedule");
  PrecisionController c;
  c.cfg_.enabled = false;
  c.pinned_ = std::move(schedule);
  c.rung_ = 0;
  return c;
}

PrecisionSchedule PrecisionController::schedule_for(int r) const {
  if (!pinned_.empty()) {
    return pinned_;
  }
  HPGMX_CHECK(r >= 0 && r < static_cast<int>(cfg_.ladder.size()));
  const Precision fine = cfg_.ladder[static_cast<std::size_t>(r)];
  if (precision_bytes(fine) <= precision_bytes(Precision::Bf16)) {
    return PrecisionSchedule{{fine}};  // already 2-byte: stay uniform
  }
  // Wider rungs keep the coarse levels in bf16 (the progressive-precision
  // schedule the static sweeps validated): promotion buys back fine-level
  // accuracy, which is where the contraction was lost, without giving up
  // the coarse-level byte savings.
  return PrecisionSchedule{{fine, Precision::Bf16}};
}

CycleAction PrecisionController::observe_residual(double relative_residual) {
  if (!prev_residual_.has_value()) {
    prev_residual_ = relative_residual;  // baseline, nothing to compare yet
    return CycleAction::Continue;
  }
  const double contraction = relative_residual / *prev_residual_;
  prev_residual_ = relative_residual;
  if (!std::isfinite(contraction) || contraction < cfg_.stagnation_threshold) {
    stagnant_ = 0;  // healthy cycle (non-finite is observe_non_finite's job)
    return CycleAction::Continue;
  }
  ++stagnant_;
  if (!cfg_.enabled || at_top() || stagnant_ < cfg_.patience) {
    return CycleAction::Continue;
  }
  promote();
  return CycleAction::Promote;
}

CycleAction PrecisionController::observe_non_finite() {
  if (!cfg_.enabled || at_top()) {
    return CycleAction::Continue;  // ScaleGuard backoff handles it
  }
  // Overflow at this rung: promotion fixes the range problem outright,
  // where a ScaleGuard backoff would only shift the window and retry.
  promote();
  return CycleAction::Promote;
}

}  // namespace hpgmx
