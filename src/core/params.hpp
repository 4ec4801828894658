// Benchmark parameters (paper Table 1) with laptop-scale defaults and
// HPGMX_* environment overrides so the same binaries scale from CI to a
// large host.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "base/error.hpp"
#include "base/options.hpp"
#include "base/types.hpp"
#include "comm/comm_world.hpp"
#include "grid/scenario.hpp"
#include "precision/adaptive_controller.hpp"
#include "precision/precision.hpp"

namespace hpgmx {

/// Which implementation path to run (paper §3.1 vs §3.2).
enum class OptLevel {
  Reference,  ///< CSR, level-scheduled two-kernel GS, unfused restrict, no overlap
  Optimized,  ///< ELL, one-sweep multicolor GS, fused restrict, overlap
};

[[nodiscard]] constexpr const char* opt_level_name(OptLevel o) {
  return o == OptLevel::Reference ? "reference" : "optimized";
}

[[nodiscard]] inline std::optional<OptLevel> parse_opt_level(
    std::string_view s) {
  if (s == "reference" || s == "ref") {
    return OptLevel::Reference;
  }
  if (s == "optimized" || s == "opt") {
    return OptLevel::Optimized;
  }
  return std::nullopt;
}

/// Run-time parameters of the benchmark (paper Table 1 values in comments).
struct BenchParams {
  // Local (per-rank) grid. Paper: 320^3 per GCD; default here is sized for
  // a single-core CI host. Must be divisible by 2^(mg_levels-1).
  local_index_t nx = 32;
  local_index_t ny = 32;
  local_index_t nz = 32;

  int restart_length = 30;          ///< Table 1: 30
  int max_iters_per_solve = 300;    ///< Table 1: 300
  int mg_levels = 4;                ///< HPCG/HPG-MxP: 4

  double validation_tol = 1e-9;     ///< Table 1: relative tolerance 1e-9
  int validation_max_iters = 10000; ///< §3.3: fullscale iteration cap
  int validation_ranks = 8;         ///< Table 1: GCDs used for validation

  double bench_seconds = 2.0;       ///< Table 1: 1800/900 s; CI-sized default
  double gamma = 0.0;               ///< nonsymmetry (0 = benchmark default)
  std::uint64_t coloring_seed = 42; ///< JPL weight seed

  /// Coefficient scenario the problem generator assembles
  /// (HPGMX_SCENARIO=poisson|convdiff|aniso|jump|stretched plus per-shape
  /// knobs — see grid/scenario.hpp). Default reproduces the paper matrix.
  ScenarioSpec scenario;

  OptLevel opt = OptLevel::Optimized;

  /// SPMD backend the driver launches ranks on (HPGMX_COMM=self|thread|mpi).
  /// Thread is the historical in-process default; mpi requires a build with
  /// HPGMX_WITH_MPI=ON and takes its rank count from mpirun. Results are
  /// bit-identical across backends at a fixed rank count (all three honor
  /// the rank-ordered allreduce contract).
  CommBackend comm_backend = CommBackend::Thread;

  /// Storage precision of the inner GMRES-IR cycles (the paper's fp32
  /// column by default; bf16/fp16 open the sub-32-bit territory). When a
  /// non-empty `precision_schedule` is set this always equals its entry
  /// (fine-level) format — the type the solver stack dispatches on.
  Precision inner_precision = Precision::Fp32;

  /// Per-multigrid-level storage formats for the inner solver (progressive
  /// precision, e.g. fp32,bf16,bf16,fp16). Empty = uniform inner_precision
  /// on every level (the degenerate single-format case).
  PrecisionSchedule precision_schedule;

  /// Adaptive precision control (HPGMX_ADAPTIVE* — see
  /// precision/adaptive_controller.hpp). When enabled, solvers routed
  /// through AdaptiveGmresIr ignore the static inner_precision/schedule and
  /// climb the configured ladder on measured stagnation; off (default) runs
  /// the static configuration bit-identically.
  AdaptiveConfig adaptive;

  /// Install `s` as the precision schedule, keeping inner_precision in sync
  /// with the schedule's entry format (empty schedule leaves it unchanged).
  void set_precision_schedule(PrecisionSchedule s) {
    precision_schedule = std::move(s);
    if (!precision_schedule.empty()) {
      inner_precision = precision_schedule.entry();
    }
  }

  /// Apply HPGMX_NX/NY/NZ, HPGMX_RESTART, HPGMX_MAXITERS, HPGMX_BENCH_SECONDS,
  /// HPGMX_GAMMA, HPGMX_MG_LEVELS, HPGMX_PRECISION (fp64|fp32|bf16|fp16),
  /// HPGMX_PRECISION_SCHEDULE (comma-separated per-level formats, e.g.
  /// fp32,bf16,bf16 — overrides HPGMX_PRECISION with its entry format),
  /// HPGMX_OPT (reference|optimized),
  /// HPGMX_COMM (self|thread|mpi), HPGMX_SCENARIO (+ shape knobs) and
  /// HPGMX_ADAPTIVE (+ _THRESHOLD/_PATIENCE/_LADDER/_START)
  /// environment overrides.
  static BenchParams from_env() {
    BenchParams p;
    p.scenario = ScenarioSpec::from_env();
    p.nx = static_cast<local_index_t>(env_int_or("HPGMX_NX", p.nx));
    p.ny = static_cast<local_index_t>(env_int_or("HPGMX_NY", p.ny));
    p.nz = static_cast<local_index_t>(env_int_or("HPGMX_NZ", p.nz));
    p.restart_length =
        static_cast<int>(env_int_or("HPGMX_RESTART", p.restart_length));
    p.max_iters_per_solve =
        static_cast<int>(env_int_or("HPGMX_MAXITERS", p.max_iters_per_solve));
    p.mg_levels = static_cast<int>(env_int_or("HPGMX_MG_LEVELS", p.mg_levels));
    p.bench_seconds = env_double_or("HPGMX_BENCH_SECONDS", p.bench_seconds);
    p.gamma = env_double_or("HPGMX_GAMMA", p.gamma);
    p.inner_precision = precision_from_env("HPGMX_PRECISION", p.inner_precision);
    p.set_precision_schedule(schedule_from_env("HPGMX_PRECISION_SCHEDULE"));
    p.adaptive = AdaptiveConfig::from_env();
    if (const auto opt = env_string("HPGMX_OPT"); opt.has_value()) {
      const auto parsed = parse_opt_level(*opt);
      HPGMX_CHECK_MSG(parsed.has_value(),
                      "HPGMX_OPT='" << *opt
                                    << "' is not a path (reference|optimized)");
      p.opt = *parsed;
    }
    if (const auto comm = env_string("HPGMX_COMM"); comm.has_value()) {
      const auto parsed = parse_comm_backend(*comm);
      HPGMX_CHECK_MSG(parsed.has_value(),
                      "HPGMX_COMM='" << *comm
                                     << "' is not a backend (self|thread|mpi)");
      p.comm_backend = *parsed;
    }
    return p;
  }
};

}  // namespace hpgmx
