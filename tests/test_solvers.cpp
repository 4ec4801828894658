// Solver tests: Givens QR, GMRES (the double reference), GMRES-IR accuracy
// equivalence, CG baseline, multigrid preconditioner quality, distributed
// consistency across rank counts.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "comm/thread_comm.hpp"
#include "core/cg.hpp"
#include "core/dist_operator.hpp"
#include "core/givens.hpp"
#include "core/gmres.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"

namespace hpgmx {
namespace {

TEST(Givens, RotationEliminatesSecondEntry) {
  const GivensRotation g = compute_givens(3.0, 4.0);
  EXPECT_NEAR(g.c * 3.0 + g.s * 4.0, 5.0, 1e-14);
  EXPECT_NEAR(-g.s * 3.0 + g.c * 4.0, 0.0, 1e-14);
  EXPECT_NEAR(g.c * g.c + g.s * g.s, 1.0, 1e-14);
}

TEST(Givens, ZeroSubdiagonalIsIdentity) {
  const GivensRotation g = compute_givens(2.0, 0.0);
  EXPECT_DOUBLE_EQ(g.c, 1.0);
  EXPECT_DOUBLE_EQ(g.s, 0.0);
}

TEST(HessenbergQR, SolvesSmallLeastSquares) {
  // Hessenberg H (3x2), minimize ||beta e1 - H y||.
  // Construct H from a known QR so the answer is checkable: use H = upper
  // triangular + zero subdiagonals => exact solve.
  HessenbergQR qr(2);
  qr.reset(6.0);
  std::vector<double> col0{2.0, 0.0};
  const double res0 = qr.insert_column(0, col0);
  EXPECT_NEAR(res0, 0.0, 1e-14);  // t = [6,0] rotated by identity
  std::vector<double> y(1);
  qr.solve(1, y);
  EXPECT_NEAR(y[0], 3.0, 1e-14);  // 2*y = 6
}

TEST(HessenbergQR, ResidualEstimateMatchesTrueLeastSquaresResidual) {
  // Random 4x3 Hessenberg; compare |t_4| with brute-force minimum.
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> dist(-1, 1);
  const int m = 3;
  std::vector<std::vector<double>> h_cols;
  HessenbergQR qr(m);
  const double beta = 2.0;
  qr.reset(beta);
  double est = 0;
  for (int k = 0; k < m; ++k) {
    std::vector<double> col(static_cast<std::size_t>(m) + 1, 0.0);
    for (int i = 0; i <= k + 1; ++i) {
      col[static_cast<std::size_t>(i)] = dist(rng) + (i == k ? 3.0 : 0.0);
    }
    h_cols.push_back(col);
    std::vector<double> work = col;
    est = qr.insert_column(k, work);
  }
  std::vector<double> y(m);
  qr.solve(m, y);
  // True residual ||beta e1 - H y||.
  std::vector<double> r(static_cast<std::size_t>(m) + 1, 0.0);
  r[0] = beta;
  for (int k = 0; k < m; ++k) {
    for (int i = 0; i <= m; ++i) {
      r[static_cast<std::size_t>(i)] -=
          h_cols[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
          y[static_cast<std::size_t>(k)];
    }
  }
  double nrm = 0;
  for (const double v : r) {
    nrm += v * v;
  }
  nrm = std::sqrt(nrm);
  EXPECT_NEAR(est, nrm, 1e-12);
}

// ---------------------------------------------------------------------------

ProblemHierarchy make_hierarchy(local_index_t n, const BenchParams& params) {
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = n;
  pp.gamma = params.gamma;
  return build_hierarchy(generate_problem(ProcessGrid(1, 1, 1), 0, pp),
                         params.mg_levels, params.coloring_seed);
}

TEST(Multigrid, OneVCycleBeatsOneGsSweep) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  Multigrid<double> mg(h, params);
  const auto& b = h.levels[0].b;

  AlignedVector<double> z(b.size(), 0.0);
  mg.apply(comm, std::span<const double>(b.data(), b.size()),
           std::span<double>(z.data(), z.size()));
  AlignedVector<double> z_full(static_cast<std::size_t>(mg.level_op(0).vec_len()),
                               0.0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z_full[i] = z[i];
  }
  AlignedVector<double> r(b.size(), 0.0);
  mg.level_op(0).residual(comm, std::span<const double>(b.data(), b.size()),
                          std::span<double>(z_full.data(), z_full.size()),
                          std::span<double>(r.data(), r.size()));
  const double after_mg =
      nrm2<double>(comm, std::span<const double>(r.data(), r.size()));

  // One plain GS sweep for comparison.
  AlignedVector<double> z1(static_cast<std::size_t>(mg.level_op(0).vec_len()),
                           0.0);
  mg.level_op(0).gs_forward(comm, std::span<const double>(b.data(), b.size()),
                            std::span<double>(z1.data(), z1.size()));
  mg.level_op(0).residual(comm, std::span<const double>(b.data(), b.size()),
                          std::span<double>(z1.data(), z1.size()),
                          std::span<double>(r.data(), r.size()));
  const double after_gs =
      nrm2<double>(comm, std::span<const double>(r.data(), r.size()));
  EXPECT_LT(after_mg, after_gs);
}

class GmresConfig : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GmresConfig, ConvergesOnBenchmarkProblem) {
  const auto [n, gamma] = GetParam();
  BenchParams params;
  params.gamma = gamma;
  const ProblemHierarchy h =
      make_hierarchy(static_cast<local_index_t>(n), params);
  SelfComm comm;
  Multigrid<double> mg(h, params);
  SolverOptions opts;
  opts.max_iters = 500;
  opts.tol = 1e-9;
  Gmres<double> solver(&mg.level_op(0), &mg, opts);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult res = solver.solve(
      comm, std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));
  EXPECT_TRUE(res.converged());
  EXPECT_LT(res.relative_residual, 1e-9);
  // Exact solution is the ones vector.
  for (const double v : x) {
    ASSERT_NEAR(v, 1.0, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Problems, GmresConfig,
    ::testing::Combine(::testing::Values(8, 16),
                       ::testing::Values(0.0, 0.2)));

TEST(Gmres, ResidualHistoryIsMonotonePerRestart) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  Multigrid<double> mg(h, params);
  SolverOptions opts;
  opts.max_iters = 400;
  opts.tol = 1e-9;
  opts.track_history = true;
  Gmres<double> solver(&mg.level_op(0), &mg, opts);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult res = solver.solve(
      comm, std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));
  ASSERT_GE(res.history.size(), 2u);
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    // GMRES minimizes the residual over a growing space: per-restart true
    // residuals must not increase.
    EXPECT_LE(res.history[i], res.history[i - 1] * (1 + 1e-10));
  }
}

TEST(GmresIr, ReachesDoubleAccuracy) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  Multigrid<float> mg_f(h, params);
  DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                           90);
  SolverOptions opts;
  opts.max_iters = 500;
  opts.tol = 1e-9;
  GmresIr<float> solver(&a_d, &mg_f.level_op(0), &mg_f, opts);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult res = solver.solve(
      comm, std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));
  EXPECT_TRUE(res.converged());
  EXPECT_LT(res.relative_residual, 1e-9);
  for (const double v : x) {
    ASSERT_NEAR(v, 1.0, 1e-5);
  }
}

TEST(GmresIr, IterationOverheadIsBounded) {
  // n_ir >= n_d is typical; the benchmark penalizes the ratio. Guard that
  // the overhead stays within a sane envelope on the benchmark matrix.
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  SolverOptions opts;
  opts.max_iters = 1000;
  opts.tol = 1e-9;

  Multigrid<double> mg_d(h, params);
  Gmres<double> gd(&mg_d.level_op(0), &mg_d, opts);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult rd = gd.solve(
      comm, std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));

  Multigrid<float> mg_f(h, params);
  DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                           90);
  GmresIr<float> gir(&a_d, &mg_f.level_op(0), &mg_f, opts);
  std::fill(x.begin(), x.end(), 0.0);
  const SolveResult rir = gir.solve(
      comm, std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));

  ASSERT_TRUE(rd.converged());
  ASSERT_TRUE(rir.converged());
  EXPECT_LE(rir.iterations, rd.iterations * 2)
      << "n_d=" << rd.iterations << " n_ir=" << rir.iterations;
}

TEST(Cg, ConvergesOnSymmetricProblem) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  Multigrid<double> mg(h, params);
  mg.set_symmetric_smoothing(true);
  SolverOptions opts;
  opts.max_iters = 500;
  opts.tol = 1e-9;
  ConjugateGradient<double> cg(&mg.level_op(0), &mg, opts);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult res = cg.solve(
      comm, std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));
  EXPECT_TRUE(res.converged());
  for (const double v : x) {
    ASSERT_NEAR(v, 1.0, 1e-5);
  }
}

// Distributed solve: the same global problem must converge at every rank
// count (iteration counts may differ slightly across p — the smoother's
// block-Jacobi boundary coupling weakens with more subdomains, exactly as
// in HPCG) and all ranks of one world must agree on the count.
class DistributedSolve : public ::testing::TestWithParam<int> {};

TEST_P(DistributedSolve, ConvergesAndRanksAgree) {
  const int p = GetParam();
  const ProcessGrid pgrid = ProcessGrid::create(p);
  // Same global grid in every configuration: 8 * (px,py,pz).
  ProblemParams pp;
  pp.nx = static_cast<local_index_t>(16 / pgrid.px());
  pp.ny = static_cast<local_index_t>(16 / pgrid.py());
  pp.nz = static_cast<local_index_t>(16 / pgrid.pz());
  BenchParams params;
  params.mg_levels = 2;  // local dims can be small at p=8

  SolverOptions opts;
  opts.max_iters = 500;
  opts.tol = 1e-9;

  std::vector<SolveResult> results(static_cast<std::size_t>(p));
  ThreadCommWorld::execute(p, [&](Comm& comm) {
    const ProblemHierarchy h =
        build_hierarchy(generate_problem(pgrid, comm.rank(), pp),
                        params.mg_levels, params.coloring_seed);
    Multigrid<double> mg(h, params);
    Gmres<double> solver(&mg.level_op(0), &mg, opts);
    AlignedVector<double> x(h.levels[0].b.size(), 0.0);
    results[static_cast<std::size_t>(comm.rank())] = solver.solve(
        comm,
        std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
        std::span<double>(x.data(), x.size()));
    // Every rank's owned part of the solution must be ≈ 1.
    for (const double v : x) {
      ASSERT_NEAR(v, 1.0, 1e-5);
    }
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(results[static_cast<std::size_t>(r)].converged());
    EXPECT_EQ(results[static_cast<std::size_t>(r)].iterations,
              results[0].iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, DistributedSolve, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace hpgmx
