// Silent-data-corruption (SDC) harness: deterministic value-fault injection,
// the per-rank corruption monitor, and the detection/recovery policy.
//
// PR 9's ChaosComm perturbs *timing* and is deliberately value-transparent;
// this layer is its complement — it flips actual payload bits so the
// detection machinery (halo checksums + true-residual audits) and the
// checkpoint/rollback recovery path can be exercised and gated in CI:
//
//   HPGMX_FAULT=flip:1,target:vec,iter:2,count:1   HPGMX_FAULT_SEED=42
//
// Grammar (`FaultConfig::parse`):
//
//   flip:p       probability a flip opportunity fires (required, in [0,1])
//   target:t     halo    — received halo payload bytes (via ChaosComm)
//                vec     — the outer solver iterate at a cycle boundary
//                values  — low-precision operator values (ELL slab)
//   bit:n        pin the flipped bit index within an element (default: a
//                seeded draw; n is taken modulo the element's bit width)
//   iter:n       script the flip to outer iteration/cycle n (vec/values
//                targets only — halo sites carry no iteration number and
//                never fire when iter is set)
//   count:n      per-rank cap on total flips (default: unlimited)
//   rank:r       only rank r injects (default: every rank)
//
// Determinism: like ChaosComm, every decision is drawn from the stateless
// splitmix64 stream hash_rand(seed ^ rank-salt, draw-counter), so a rank's
// flip sequence depends only on (seed, rank, its own operation order) — two
// runs with the same HPGMX_FAULT_SEED corrupt exactly the same bits and,
// because detection and rollback are themselves deterministic, recover to
// bit-identical solutions. Each rank owns its injector and monitor; there is
// no cross-rank shared state.
//
// Detection rides the existing reductions: each rank contributes
// SdcMonitor::lane() (exactly 0.0 or 1.0) as one extra lane on the solvers'
// packed scalar allreduces (ReductionLanes, core/reduction_lanes.hpp) — the
// same pattern as SolveControl::trip_lane — and every rank decodes the same
// verdict (sum > 0) at the same iteration. Zero new collectives on the
// detection path.
#pragma once

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "base/error.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"

namespace hpgmx {

namespace detail {
template <std::size_t Bytes>
struct UIntBits;
template <>
struct UIntBits<2> {
  using type = std::uint16_t;
};
template <>
struct UIntBits<4> {
  using type = std::uint32_t;
};
template <>
struct UIntBits<8> {
  using type = std::uint64_t;
};
}  // namespace detail

/// Unsigned integer with the same width as T's storage (bf16_t/fp16_t are
/// 16-bit bit-holders, so every supported value type has one).
template <typename T>
using uint_bits_t = typename detail::UIntBits<sizeof(T)>::type;

/// Additive checksum over the *bit patterns* of a payload: the wrapping sum
/// of each element reinterpreted as its same-width unsigned integer. A flip
/// of bit k in any word (payload or checksum) perturbs the sum by ±2^k mod
/// 2^w, which is nonzero — so every single-bit fault is caught, at the cost
/// of one extra element per message and one add per word. Returned as a T so
/// it can ride the wire as the message's final element.
template <typename T>
[[nodiscard]] inline T additive_checksum(const T* data, std::size_t n) {
  using U = uint_bits_t<T>;
  U sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum = static_cast<U>(sum + std::bit_cast<U>(data[i]));
  }
  return std::bit_cast<T>(sum);
}

enum class FaultTarget {
  None,    ///< injector disabled
  Halo,    ///< received halo payload bytes (ChaosComm recv paths)
  Vec,     ///< outer solver iterate at the cycle/iteration boundary
  Values,  ///< low-precision operator values (optimized ELL slab)
};

[[nodiscard]] constexpr std::string_view fault_target_name(FaultTarget t) {
  switch (t) {
    case FaultTarget::None:
      return "none";
    case FaultTarget::Halo:
      return "halo";
    case FaultTarget::Vec:
      return "vec";
    case FaultTarget::Values:
      return "values";
  }
  return "none";
}

struct FaultConfig {
  double flip_prob = 0.0;                      ///< P(a flip opportunity fires)
  FaultTarget target = FaultTarget::None;      ///< what gets corrupted
  int bit = -1;                                ///< pinned bit index (-1=draw)
  std::int64_t iter = -1;                      ///< scripted iteration (-1=any)
  std::int64_t max_flips = 0;                  ///< per-rank cap (0=unlimited)
  int rank = -1;                               ///< injecting rank (-1=all)
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;  ///< HPGMX_FAULT_SEED

  [[nodiscard]] bool enabled() const {
    return flip_prob > 0.0 && target != FaultTarget::None;
  }

  /// Parse "flip:p,target:halo|vec|values[,bit:n][,iter:n][,count:n][,rank:r]".
  /// Throws hpgmx::Error on unknown keys or out-of-range values.
  [[nodiscard]] static FaultConfig parse(std::string_view spec) {
    FaultConfig cfg;
    if (spec.empty() || spec == "off") {
      return cfg;
    }
    const auto parse_double = [](std::string_view key, std::string_view value) {
      double out = 0.0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      HPGMX_CHECK_MSG(ec == std::errc{} && ptr == value.data() + value.size(),
                      "HPGMX_FAULT: bad value '" << std::string(value)
                                                 << "' for "
                                                 << std::string(key));
      return out;
    };
    const auto parse_int = [](std::string_view key, std::string_view value) {
      std::int64_t out = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      HPGMX_CHECK_MSG(ec == std::errc{} && ptr == value.data() + value.size(),
                      "HPGMX_FAULT: bad value '" << std::string(value)
                                                 << "' for "
                                                 << std::string(key));
      return out;
    };
    std::string_view rest = spec;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view field =
          comma == std::string_view::npos ? rest : rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view{}
                                             : rest.substr(comma + 1);
      const std::size_t colon = field.find(':');
      HPGMX_CHECK_MSG(colon != std::string_view::npos,
                      "HPGMX_FAULT: field '" << std::string(field)
                                             << "' is not key:value");
      const std::string_view key = field.substr(0, colon);
      const std::string_view value = field.substr(colon + 1);
      if (key == "flip") {
        cfg.flip_prob = parse_double(key, value);
        HPGMX_CHECK_MSG(cfg.flip_prob >= 0.0 && cfg.flip_prob <= 1.0,
                        "HPGMX_FAULT: flip probability must be in [0,1]");
      } else if (key == "target") {
        if (value == "halo") {
          cfg.target = FaultTarget::Halo;
        } else if (value == "vec") {
          cfg.target = FaultTarget::Vec;
        } else if (value == "values") {
          cfg.target = FaultTarget::Values;
        } else {
          HPGMX_CHECK_MSG(value == "none", "HPGMX_FAULT: unknown target '"
                                               << std::string(value) << "'");
          cfg.target = FaultTarget::None;
        }
      } else if (key == "bit") {
        cfg.bit = static_cast<int>(parse_int(key, value));
        HPGMX_CHECK_MSG(cfg.bit >= -1, "HPGMX_FAULT: bit must be >= 0");
      } else if (key == "iter") {
        cfg.iter = parse_int(key, value);
      } else if (key == "count") {
        cfg.max_flips = parse_int(key, value);
        HPGMX_CHECK_MSG(cfg.max_flips >= 0,
                        "HPGMX_FAULT: count must be >= 0");
      } else if (key == "rank") {
        cfg.rank = static_cast<int>(parse_int(key, value));
      } else {
        HPGMX_CHECK_MSG(false, "HPGMX_FAULT: unknown key '" << std::string(key)
                                                            << "'");
      }
    }
    return cfg;
  }

  /// HPGMX_FAULT (spec) + HPGMX_FAULT_SEED; disabled config when unset.
  [[nodiscard]] static FaultConfig from_env() {
    FaultConfig cfg;
    if (const auto spec = env_string("HPGMX_FAULT")) {
      cfg = parse(*spec);
    }
    cfg.seed = static_cast<std::uint64_t>(
        env_int_or("HPGMX_FAULT_SEED", static_cast<std::int64_t>(cfg.seed)));
    return cfg;
  }

  /// Canonical spec string (round-trips through parse); "off" if disabled.
  [[nodiscard]] std::string to_string() const {
    if (!enabled()) {
      return "off";
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "flip:%.17g,target:%s,bit:%d,iter:%lld,count:%lld,rank:%d",
                  flip_prob, std::string(fault_target_name(target)).c_str(),
                  bit, static_cast<long long>(iter),
                  static_cast<long long>(max_flips), rank);
    return buf;
  }
};

/// Per-rank bit-flip source. Each flip opportunity consumes draws from this
/// rank's stream regardless of whether it fires, so the flip schedule is a
/// pure function of (seed, rank, opportunity order).
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& cfg, int rank)
      : cfg_(cfg),
        rank_(rank),
        // Same rank-salt recipe as ChaosComm: distinct ranks draw
        // independent sequences from one seed.
        stream_(splitmix64(cfg.seed) ^
                splitmix64(0xC2B2AE3D27D4EB4FULL *
                           (static_cast<std::uint64_t>(rank) + 1))) {}

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

  /// Is this injector live for the given target on this rank (config armed,
  /// per-rank flip budget not yet spent)?
  [[nodiscard]] bool armed(FaultTarget t) const {
    return cfg_.enabled() && cfg_.target == t &&
           (cfg_.rank < 0 || cfg_.rank == rank_) &&
           (cfg_.max_flips == 0 ||
            flips_ < static_cast<std::uint64_t>(cfg_.max_flips));
  }

  /// One flip opportunity over a buffer of elements of `elem_bytes` bytes.
  /// `iteration` is the scripted site index (outer cycle for vec/values);
  /// pass -1 for unscripted sites such as halo receives — when the config
  /// pins `iter`, unscripted sites never fire. Returns true when a bit was
  /// flipped.
  bool maybe_flip(FaultTarget site, std::span<std::byte> data,
                  std::size_t elem_bytes, std::int64_t iteration = -1) {
    if (!armed(site) || data.size() < elem_bytes) {
      return false;
    }
    if (cfg_.iter >= 0 && iteration != cfg_.iter) {
      return false;
    }
    if (unit_rand(stream_, draws_++) >= cfg_.flip_prob) {
      return false;
    }
    const std::size_t elems = data.size() / elem_bytes;
    const std::size_t elem =
        static_cast<std::size_t>(hash_rand(stream_, draws_++) % elems);
    const std::size_t elem_bits = elem_bytes * 8;
    const std::size_t bit =
        cfg_.bit >= 0
            ? static_cast<std::size_t>(cfg_.bit) % elem_bits
            : static_cast<std::size_t>(hash_rand(stream_, draws_++) %
                                       elem_bits);
    data[elem * elem_bytes + bit / 8] ^= std::byte{1} << (bit % 8);
    ++flips_;
    return true;
  }

  /// Fire decision + raw draws for an external corruption site whose
  /// geometry the injector cannot see (operator values: the owner reduces
  /// the draws against its live slab — DistOperator::corrupt_value_bit).
  /// Consumes draws exactly like maybe_flip, so vec and values schedules
  /// are interchangeable under one seed.
  bool maybe_draw(FaultTarget site, std::int64_t iteration,
                  std::uint64_t* value_draw, std::uint64_t* bit_draw) {
    if (!armed(site)) {
      return false;
    }
    if (cfg_.iter >= 0 && iteration != cfg_.iter) {
      return false;
    }
    if (unit_rand(stream_, draws_++) >= cfg_.flip_prob) {
      return false;
    }
    *value_draw = hash_rand(stream_, draws_++);
    *bit_draw = hash_rand(stream_, draws_++);
    ++flips_;
    return true;
  }

  [[nodiscard]] std::uint64_t flips() const { return flips_; }
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

 private:
  FaultConfig cfg_;
  int rank_;
  std::uint64_t stream_;
  std::uint64_t draws_ = 0;
  std::uint64_t flips_ = 0;
};

/// Per-rank corruption evidence, reduced to a verdict lane. A halo checksum
/// mismatch flags the monitor; the owning solver packs lane() onto its next
/// packed allreduce and every rank decodes the same verdict (sum > 0).
/// Plain fields: one monitor per rank, touched only by that rank's thread.
class SdcMonitor {
 public:
  /// Record a checksum mismatch on a received halo message.
  void flag_checksum() {
    ++checksum_failures_;
    pending_ = true;
  }

  /// Verdict-lane contribution: exactly 0.0 or 1.0, so the reduced sum is
  /// an exact rank count for any size < 2^53 and decode is rank-uniform.
  [[nodiscard]] double lane() const { return pending_ ? 1.0 : 0.0; }

  /// Decode a reduced verdict lane: did any rank flag corruption?
  [[nodiscard]] static bool decode(double reduced_sum) {
    return reduced_sum > 0.0;
  }

  /// Acknowledge the pending flag after rollback (the cumulative counter
  /// survives for reporting).
  void clear() { pending_ = false; }

  [[nodiscard]] bool pending() const { return pending_; }
  [[nodiscard]] std::uint64_t checksum_failures() const {
    return checksum_failures_;
  }

 private:
  bool pending_ = false;
  std::uint64_t checksum_failures_ = 0;
};

/// Detection + recovery policy for the outer Krylov loops.
struct SdcPolicy {
  bool detect = false;          ///< master switch (HPGMX_AUDIT=1)
  int audit_interval = 8;       ///< CG true-residual audit cadence (iters)
  double audit_drift = 1e4;     ///< CG drift threshold, multiples of eps_T
  double audit_growth = 100.0;  ///< GMRES(-IR) growth-vs-best factor
  int checkpoint_interval = 4;  ///< outer-state checkpoint cadence (cycles)
  int max_recoveries = 3;       ///< rollback budget before Corrupted

  [[nodiscard]] bool enabled() const { return detect; }

  /// HPGMX_AUDIT (0/1) + HPGMX_AUDIT_INTERVAL/HPGMX_AUDIT_DRIFT/
  /// HPGMX_AUDIT_GROWTH + HPGMX_CHECKPOINT/HPGMX_CHECKPOINT_BUDGET.
  [[nodiscard]] static SdcPolicy from_env() {
    SdcPolicy p;
    p.detect = env_int_or("HPGMX_AUDIT", 0) != 0;
    p.audit_interval = static_cast<int>(
        env_int_or("HPGMX_AUDIT_INTERVAL", p.audit_interval));
    HPGMX_CHECK_MSG(p.audit_interval > 0,
                    "HPGMX_AUDIT_INTERVAL must be positive");
    p.audit_drift = env_double_or("HPGMX_AUDIT_DRIFT", p.audit_drift);
    p.audit_growth = env_double_or("HPGMX_AUDIT_GROWTH", p.audit_growth);
    p.checkpoint_interval = static_cast<int>(
        env_int_or("HPGMX_CHECKPOINT", p.checkpoint_interval));
    HPGMX_CHECK_MSG(p.checkpoint_interval > 0,
                    "HPGMX_CHECKPOINT must be positive");
    p.max_recoveries = static_cast<int>(
        env_int_or("HPGMX_CHECKPOINT_BUDGET", p.max_recoveries));
    return p;
  }
};

/// Format-aware growth threshold: 16-bit inner formats see legitimately
/// larger residual excursions (guard backoffs, rung promotions), so the
/// growth audit gets extra headroom before calling corruption.
[[nodiscard]] inline double sdc_growth_threshold(const SdcPolicy& p,
                                                 std::size_t value_bytes) {
  return p.audit_growth * (value_bytes <= 2 ? 16.0 : 1.0);
}

}  // namespace hpgmx
