// ProblemDescriptor: the canonical identity of a solvable problem — grid
// dims, rank layout, scenario, nonsymmetry, solver kind, precision
// configuration, index width, tolerance. Two descriptors with equal
// canonical() strings denote bit-identically equal operators and solver
// configurations; the string is the OperatorCache key and its FNV-1a hash
// is the compact id requests/results report.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "core/params.hpp"
#include "grid/scenario.hpp"
#include "precision/precision.hpp"

namespace hpgmx {

enum class SolverKind { Gmres, GmresIr, Cg };

[[nodiscard]] constexpr const char* solver_kind_name(SolverKind k) {
  switch (k) {
    case SolverKind::Gmres:
      return "gmres";
    case SolverKind::GmresIr:
      return "gmres_ir";
    case SolverKind::Cg:
      return "cg";
  }
  return "gmres_ir";
}

[[nodiscard]] inline std::optional<SolverKind> parse_solver_kind(
    std::string_view s) {
  if (s == "gmres") {
    return SolverKind::Gmres;
  }
  if (s == "gmres_ir" || s == "gmres-ir" || s == "ir") {
    return SolverKind::GmresIr;
  }
  if (s == "cg") {
    return SolverKind::Cg;
  }
  return std::nullopt;
}

struct ProblemDescriptor {
  // -- operator identity ----------------------------------------------------
  local_index_t nx = 16, ny = 16, nz = 16;  ///< per-rank grid
  int ranks = 1;
  int mg_levels = 4;
  ScenarioSpec scenario;
  double gamma = 0.0;
  std::uint64_t coloring_seed = 42;
  OptLevel opt = OptLevel::Optimized;

  // -- solver configuration -------------------------------------------------
  SolverKind solver = SolverKind::GmresIr;
  Precision inner_precision = Precision::Fp32;  ///< GMRES-IR inner format
  PrecisionSchedule schedule;                   ///< empty = uniform inner
  double tol = 1e-9;
  int max_iters = 500;
  int restart = 30;
  /// Adaptive precision controller configuration. Part of the cache
  /// identity: an adaptive run and a static run of the same operator take
  /// different iterate trajectories, so their results must never alias.
  AdaptiveConfig adaptive;

  /// Canonical text form: a field-order-stable, %.17g-exact rendering.
  /// Equal strings ⟺ equal descriptors (the cache key).
  [[nodiscard]] std::string canonical() const {
    const std::string prec_name(precision_name(inner_precision));
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "n=%dx%dx%d;ranks=%d;mg=%d;gamma=%.17g;seed=%llu;opt=%s;"
        "solver=%s;prec=%s;tol=%.17g;maxit=%d;restart=%d",
        static_cast<int>(nx), static_cast<int>(ny), static_cast<int>(nz),
        ranks, mg_levels, gamma,
        static_cast<unsigned long long>(coloring_seed), opt_level_name(opt),
        solver_kind_name(solver), prec_name.c_str(), tol, max_iters, restart);
    std::string s(buf);
    s += ";scenario=";
    s += scenario.to_string();
    s += ";schedule=";
    s += schedule.empty() ? "-" : schedule.to_string();
    s += ";adaptive=";
    s += adaptive.to_string();
    return s;
  }

  /// FNV-1a 64-bit over canonical(): the compact request/report id. Stable
  /// across runs and platforms; collisions are harmless for correctness
  /// (the cache keys on the full canonical string).
  [[nodiscard]] std::uint64_t hash() const {
    const std::string s = canonical();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ull;
    }
    return h;
  }

  /// BenchParams view of this descriptor — what the hierarchy builder and
  /// the Multigrid/solver constructors consume.
  [[nodiscard]] BenchParams to_bench_params() const {
    BenchParams p;
    p.nx = nx;
    p.ny = ny;
    p.nz = nz;
    p.mg_levels = mg_levels;
    p.scenario = scenario;
    p.gamma = gamma;
    p.coloring_seed = coloring_seed;
    p.opt = opt;
    p.inner_precision = inner_precision;
    p.set_precision_schedule(schedule);
    p.validation_tol = tol;
    p.validation_max_iters = max_iters;
    p.restart_length = restart;
    p.adaptive = adaptive;
    return p;
  }

  /// Descriptor for BenchParams `p` solved on `ranks` ranks — the bridge
  /// from the env-driven exhibit configuration into the service layer.
  [[nodiscard]] static ProblemDescriptor from_bench_params(
      const BenchParams& p, int num_ranks, SolverKind kind) {
    ProblemDescriptor d;
    d.nx = p.nx;
    d.ny = p.ny;
    d.nz = p.nz;
    d.ranks = num_ranks;
    d.mg_levels = p.mg_levels;
    d.scenario = p.scenario;
    d.gamma = p.gamma;
    d.coloring_seed = p.coloring_seed;
    d.opt = p.opt;
    d.solver = kind;
    d.inner_precision = p.inner_precision;
    d.schedule = p.precision_schedule;
    d.tol = p.validation_tol;
    d.max_iters = p.validation_max_iters;
    d.restart = p.restart_length;
    d.adaptive = p.adaptive;
    return d;
  }
};

}  // namespace hpgmx
