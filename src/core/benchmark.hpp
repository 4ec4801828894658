// The three-phase HPG-MxP benchmark driver (paper §3):
//
//   1. validation  — double GMRES to 1e-9 (n_d iterations), then
//                    mixed GMRES-IR to the same target (n_ir); the ratio
//                    n_d/n_ir (capped at 1) penalizes the mxp score.
//                    Two modes: `standard` (small fixed rank count, §3) and
//                    `fullscale` (all ranks, iteration-capped target, §3.3).
//   2. mxp         — GMRES-IR runs of a fixed iteration count repeated
//                    until the time budget is filled; mixed-precision
//                    GFLOP/s collected from the motif model.
//   3. double      — the same with the all-double GMRES solver.
//
// Each phase executes as an SPMD region on a pluggable CommWorld
// (HPGMX_COMM): SelfComm for serial runs, ThreadComm — the historical
// in-process MPI substitute and still the default — or real MpiComm ranks
// under mpirun when built with HPGMX_WITH_MPI=ON. Per-rank problems and
// hierarchies are generated once for the ranks hosted by this process
// (all of them in-process, exactly one under MPI) and shared across phases.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm_world.hpp"
#include "core/gmres.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "perf/motifs.hpp"

namespace hpgmx {

enum class ValidationMode { Standard, FullScale };

struct ValidationResult {
  ValidationMode mode = ValidationMode::Standard;
  int ranks = 0;
  int n_d = 0;               ///< double-GMRES iterations to the target
  int n_ir = 0;              ///< GMRES-IR iterations to the same target
  double achieved_tol = 0;   ///< the target actually used (§3.3: fullscale
                             ///< may stop above 1e-9 at the iteration cap)
  bool d_converged = false;
  bool ir_converged = false;

  [[nodiscard]] double ratio() const {
    return n_ir > 0 ? static_cast<double>(n_d) / n_ir : 1.0;
  }
  /// Ratios above 1 confer no advantage (paper §3).
  [[nodiscard]] double penalty() const {
    const double r = ratio();
    return r < 1.0 ? r : 1.0;
  }
};

struct PhaseResult {
  std::string label;      ///< "mxp" or "double"
  int solves = 0;         ///< complete solver runs executed
  int iterations = 0;     ///< total iterations across solves (all ranks equal)
  double wall_seconds = 0;///< max across ranks
  MotifStats stats;       ///< merged across ranks
  double raw_gflops = 0;  ///< aggregate model FLOPs / wall
  double final_relres = 0;///< residual after the last fixed-iteration solve
};

struct BenchReport {
  BenchParams params;
  int ranks = 0;
  ValidationResult validation;
  PhaseResult mxp;
  PhaseResult dbl;

  [[nodiscard]] double penalized_gflops() const {
    return mxp.raw_gflops * validation.penalty();
  }
  /// The paper's headline metric: penalized mxp throughput over double.
  [[nodiscard]] double speedup() const {
    return dbl.raw_gflops > 0 ? penalized_gflops() / dbl.raw_gflops : 0;
  }
  /// Per-motif speedup (penalized), Fig. 5's bars.
  [[nodiscard]] double motif_speedup(Motif m) const {
    const double d = dbl.stats.gflops(m);
    return d > 0 ? mxp.stats.gflops(m) * validation.penalty() / d : 0;
  }

  [[nodiscard]] std::string to_string() const;
};

class BenchmarkDriver {
 public:
  /// Builds the problem hierarchy of every rank hosted by this process up
  /// front (shared by all phases). `num_ranks` sizes the SPMD world on the
  /// in-process backends; on the MPI backend the world size comes from
  /// mpirun instead (pass mpi_world_size(), which is what the requested
  /// count is checked against).
  BenchmarkDriver(BenchParams params, int num_ranks);
  ~BenchmarkDriver();

  [[nodiscard]] int num_ranks() const { return num_ranks_; }
  [[nodiscard]] const BenchParams& params() const { return params_; }

  /// Switch the inner GMRES-IR storage precision between runs — precision
  /// sweeps reuse one driver (and its generated hierarchies) per rank count.
  /// Clears any installed per-level schedule (a uniform format replaces it).
  void set_inner_precision(Precision p) {
    params_.precision_schedule = {};
    params_.inner_precision = p;
  }

  /// Install a per-level precision schedule for the inner multigrid
  /// (progressive precision); the inner solver dispatches on its entry
  /// format. An empty schedule restores the uniform inner_precision path.
  void set_precision_schedule(PrecisionSchedule s) {
    params_.set_precision_schedule(std::move(s));
  }

  /// Phase 1. `mode` selects §3 standard or §3.3 fullscale validation.
  ValidationResult run_validation(ValidationMode mode);

  /// Phases 2–3. `mixed` selects GMRES-IR (true) or double GMRES (false).
  PhaseResult run_phase(bool mixed);

  /// All three phases; standard validation.
  BenchReport run_all();

 private:
  BenchParams params_;
  int num_ranks_;
  /// SPMD world of the full-size run (params_.comm_backend), plus the
  /// locally hosted hierarchies — one per local slot, indexed by
  /// world_->slot_of(comm.rank()) inside SPMD bodies.
  std::unique_ptr<CommWorld> world_;
  std::vector<ProblemHierarchy> hierarchy_;
  /// Lazily built world/hierarchies for the standard-validation rank count
  /// when it differs (always in-process threads: an mpirun launch cannot
  /// shrink its process count, so MPI validation runs on the full world).
  std::unique_ptr<CommWorld> validation_world_;
  std::vector<ProblemHierarchy> validation_hierarchy_;
  int validation_ranks_ = 0;

  std::vector<ProblemHierarchy> build_hierarchies(const CommWorld& world) const;
  /// World + locally hosted hierarchies to run a `ranks`-wide region on.
  std::pair<CommWorld*, const std::vector<ProblemHierarchy>*> context_for(
      int ranks);
  /// Validation's double reference solve depends only on the problem and
  /// rank count, not on inner_precision — cache it so precision sweeps
  /// (several run_validation calls on one driver) run it once per ranks.
  SolveResult validation_double_result_;
  int validation_double_ranks_ = -1;
  /// Phase body instantiated per inner storage format (TLow is ignored for
  /// mixed == false, the all-double phase).
  template <typename TLow>
  PhaseResult run_phase_impl(bool mixed);
};

}  // namespace hpgmx
