// Quickstart: assemble the benchmark problem on one rank, solve it with
// double GMRES and with mixed-precision GMRES-IR, and compare.
//
//   $ ./quickstart [n]                  # local grid n^3, default 32
//   $ HPGMX_PRECISION=bf16 ./quickstart # inner cycles in bf16 (or fp16/fp32)
//   $ HPGMX_PRECISION_SCHEDULE=fp32,bf16,bf16 ./quickstart
//                          # progressive precision: one format per MG level
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/benchmark.hpp"
#include "core/gmres.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"
#include "precision/precision.hpp"
#include "precision/scale_guard.hpp"

int main(int argc, char** argv) {
  using namespace hpgmx;
  const local_index_t n =
      argc > 1 ? static_cast<local_index_t>(std::atoi(argv[1])) : 32;

  // 1. Generate the HPG-MxP problem: 27-point stencil, diag 26, off-diag -1.
  ProcessGrid pgrid(1, 1, 1);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = n;
  // Environment overrides (HPGMX_OPT, precision knobs, ...)
  // apply; the command-line grid size wins over HPGMX_NX.
  BenchParams params = BenchParams::from_env();
  params.nx = params.ny = params.nz = n;

  ProblemHierarchy hierarchy =
      build_hierarchy(generate_problem(pgrid, 0, pp), params.mg_levels,
                      params.coloring_seed);
  std::printf("grid %dx%dx%d  rows=%d  nnz=%lld  mg-levels=%zu\n", n, n, n,
              hierarchy.levels[0].a.num_rows,
              static_cast<long long>(hierarchy.levels[0].a.nnz()),
              hierarchy.levels.size());

  SelfComm comm;
  SolverOptions opts;
  opts.restart = params.restart_length;
  opts.max_iters = 1000;
  opts.tol = 1e-9;
  opts.track_history = true;

  const std::span<const double> b(hierarchy.levels[0].b.data(),
                                  hierarchy.levels[0].b.size());

  // 2. Reference: all-double GMRES with the multigrid preconditioner.
  WallTimer t_d;
  Multigrid<double> mg_d(hierarchy, params);
  Gmres<double> gmres_d(&mg_d.level_op(0), &mg_d, opts);
  AlignedVector<double> x_d(b.size(), 0.0);
  const SolveResult res_d =
      gmres_d.solve(comm, b, std::span<double>(x_d.data(), x_d.size()));
  const double sec_d = t_d.seconds();
  std::printf("double GMRES  : %4d iters, relres %.2e, %.3f s\n",
              res_d.iterations, res_d.relative_residual, sec_d);

  // 3. Mixed precision: GMRES-IR, inner cycles in the storage format chosen
  //    by HPGMX_PRECISION (fp32 default; bf16/fp16 halve the bytes again).
  //    HPGMX_PRECISION_SCHEDULE instead assigns one format per multigrid
  //    level (progressive precision) — the solver dispatches on its entry.
  params.inner_precision =
      precision_from_env("HPGMX_PRECISION", params.inner_precision);
  params.set_precision_schedule(schedule_from_env("HPGMX_PRECISION_SCHEDULE"));
  const Precision prec = params.inner_precision;
  WallTimer t_ir;
  AlignedVector<double> x_ir(b.size(), 0.0);
  const SolveResult res_ir = dispatch_precision(prec, [&](auto tag) {
    using TLow = typename decltype(tag)::type;
    const std::vector<double> lvl_max = hierarchy_level_max_abs(hierarchy);
    ScaleGuard guard;
    guard.initialize(
        guard_reference_max_abs(
            std::span<const double>(lvl_max.data(), lvl_max.size()),
            params.precision_schedule),
        PrecisionTraits<TLow>::max_finite);
    Multigrid<TLow> mg_low(hierarchy, params, /*tag_base=*/100, guard.scale(),
                           params.precision_schedule,
                           std::span<const double>(lvl_max.data(),
                                                   lvl_max.size()));
    DistOperator<double> a_d(hierarchy.levels[0].a,
                             hierarchy.structures[0].get(), params.opt,
                             /*tag=*/90);
    GmresIr<TLow> gmres_ir(&a_d, &mg_low.level_op(0), &mg_low, opts);
    gmres_ir.set_scale_guard(&guard);
    return gmres_ir.solve(comm, b, std::span<double>(x_ir.data(), x_ir.size()));
  });
  const double sec_ir = t_ir.seconds();
  const std::string prec_label =
      params.precision_schedule.empty()
          ? std::string(precision_name(prec))
          : params.precision_schedule.to_string();
  std::printf("GMRES-IR (%s): %4d iters, relres %.2e, %.3f s\n",
              prec_label.c_str(), res_ir.iterations, res_ir.relative_residual,
              sec_ir);

  // 4. Both reached the same 1e-9 accuracy; the exact solution is 1.
  double max_err = 0;
  for (const double v : x_ir) {
    max_err = std::max(max_err, std::abs(v - 1.0));
  }
  std::printf("GMRES-IR max |x-1| = %.2e\n", max_err);
  std::printf("iteration ratio n_d/n_ir = %.3f (penalty %.3f)\n",
              static_cast<double>(res_d.iterations) / res_ir.iterations,
              std::min(1.0, static_cast<double>(res_d.iterations) /
                                res_ir.iterations));
  return res_d.converged() && res_ir.converged() ? 0 : 1;
}
