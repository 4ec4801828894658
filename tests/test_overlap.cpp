// Overlap / backend equivalence suite.
//
// The paper's overlap optimization (§3.2.3) hides halo latency behind
// interior compute. The contract that makes it an *optimization* and not a
// different algorithm is bit-identity: splitting each sweep into
// interior+boundary row lists around the split-phase exchange must produce
// exactly the bits the blocking exchange produces, for every value format.
// This file pins that down, along with the
// sibling contracts: GMRES-IR sends exactly one outer reduction per
// refinement cycle, the Self and Thread backends agree at one rank, and the
// HPGMX_COMM environment switch parses correctly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "base/error.hpp"
#include "comm/comm_world.hpp"
#include "comm/thread_comm.hpp"
#include "comm_doubles.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "grid/problem.hpp"
#include "precision/float16.hpp"

namespace hpgmx {
namespace {

// ---------------------------------------------------------------------------
// Partition correctness: every owned row lands in exactly one of
// interior/boundary, boundary rows are precisely the rows reading a halo
// column, and the per-color splits repartition the same sets.

TEST(OverlapPartition, ClassifiesEveryRowExactlyOnce) {
  const ProcessGrid pgrid = ProcessGrid::create(4);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 4;
  for (int rank = 0; rank < 4; ++rank) {
    const Problem prob = generate_problem(pgrid, rank, pp);
    const OperatorStructure s = build_structure(prob, 42);
    const CsrMatrix<double>& a = prob.a;

    const auto reads_halo = [&](local_index_t row) {
      for (std::int64_t k = a.row_ptr[row]; k < a.row_ptr[row + 1]; ++k) {
        if (a.col_idx[static_cast<std::size_t>(k)] >= a.num_owned_cols) {
          return true;
        }
      }
      return false;
    };

    std::vector<int> seen(static_cast<std::size_t>(a.num_rows), 0);
    for (const local_index_t row : s.interior_rows) {
      ++seen[static_cast<std::size_t>(row)];
      EXPECT_FALSE(reads_halo(row)) << "rank " << rank << " row " << row;
    }
    for (const local_index_t row : s.boundary_rows) {
      ++seen[static_cast<std::size_t>(row)];
      EXPECT_TRUE(reads_halo(row)) << "rank " << rank << " row " << row;
    }
    for (std::size_t row = 0; row < seen.size(); ++row) {
      ASSERT_EQ(seen[row], 1) << "rank " << rank << " row " << row;
    }

    // The per-color splits partition the same two sets, color by color.
    ASSERT_EQ(s.colors_interior.num_groups(), s.colors.num_groups());
    ASSERT_EQ(s.colors_boundary.num_groups(), s.colors.num_groups());
    std::set<local_index_t> interior(s.interior_rows.begin(),
                                     s.interior_rows.end());
    std::set<local_index_t> boundary(s.boundary_rows.begin(),
                                     s.boundary_rows.end());
    std::set<local_index_t> color_interior;
    std::set<local_index_t> color_boundary;
    for (int c = 0; c < s.colors.num_groups(); ++c) {
      std::set<local_index_t> color_all(s.colors.group(c).begin(),
                                        s.colors.group(c).end());
      for (const local_index_t row : s.colors_interior.group(c)) {
        EXPECT_TRUE(color_all.count(row) == 1);
        color_interior.insert(row);
      }
      for (const local_index_t row : s.colors_boundary.group(c)) {
        EXPECT_TRUE(color_all.count(row) == 1);
        color_boundary.insert(row);
      }
    }
    EXPECT_EQ(color_interior, interior);
    EXPECT_EQ(color_boundary, boundary);
  }
}

// ---------------------------------------------------------------------------
// Kernel-level bit-identity: the operator's overlapped SpMV, fused SpMV-dot
// and GS against a blocking exchange followed by the same row-list kernels
// in the same order, across all four value formats.

template <typename T>
void expect_overlap_bit_identity() {
  constexpr int kRanks = 4;
  const ProcessGrid pgrid = ProcessGrid::create(kRanks);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 4;

  ThreadCommWorld::execute(kRanks, [&](Comm& comm) {
    const Problem prob = generate_problem(pgrid, comm.rank(), pp);
    const OperatorStructure s = build_structure(prob, 42);
    DistOperator<T> op(prob.a, &s, OptLevel::Optimized, /*tag=*/7);
    HaloExchange<T> blocking(&s.halo, /*tag=*/507);
    const EllMatrix<T>& ell = op.ell();

    const auto n = static_cast<std::size_t>(op.vec_len());
    const auto owned = static_cast<std::size_t>(op.num_owned());
    AlignedVector<T> x_on(n, T{}), x_off(n, T{});
    for (std::size_t i = 0; i < owned; ++i) {
      const double v =
          0.01 * static_cast<double>(i) + static_cast<double>(comm.rank());
      x_on[i] = static_cast<T>(v);
      x_off[i] = static_cast<T>(v);
    }
    AlignedVector<T> y_on(n, T{}), y_off(n, T{});
    const std::span<const T> xc(x_off.data(), n);

    op.spmv(comm, std::span<T>(x_on.data(), n), std::span<T>(y_on.data(), n));
    blocking.exchange(comm, std::span<T>(x_off.data(), n));
    ell_spmv_rows(ell, xc, std::span<T>(y_off.data(), n), s.interior_rows);
    ell_spmv_rows(ell, xc, std::span<T>(y_off.data(), n), s.boundary_rows);
    EXPECT_EQ(std::memcmp(y_on.data(), y_off.data(), n * sizeof(T)), 0);
    // The refreshed halo region of x must agree too.
    EXPECT_EQ(std::memcmp(x_on.data(), x_off.data(), n * sizeof(T)), 0);

    const double dot_on = op.spmv_dot(comm, std::span<T>(x_on.data(), n),
                                      std::span<T>(y_on.data(), n));
    blocking.exchange(comm, std::span<T>(x_off.data(), n));
    const double dot_off = comm.allreduce_scalar(
        ell_spmv_rows_dot(ell, xc, std::span<T>(y_off.data(), n),
                          s.interior_rows) +
            ell_spmv_rows_dot(ell, xc, std::span<T>(y_off.data(), n),
                              s.boundary_rows),
        ReduceOp::Sum);
    EXPECT_EQ(std::memcmp(&dot_on, &dot_off, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(y_on.data(), y_off.data(), n * sizeof(T)), 0);

    AlignedVector<T> r(owned, T{});
    for (std::size_t i = 0; i < owned; ++i) {
      r[i] = static_cast<T>(prob.b[i]);
    }
    const std::span<const T> rc(r.data(), owned);
    AlignedVector<T> z_on(n, T{}), z_off(n, T{});
    const std::span<T> zs(z_off.data(), n);
    op.gs_forward(comm, rc, std::span<T>(z_on.data(), n));
    blocking.exchange(comm, zs);
    for (int c = 0; c < s.colors_interior.num_groups(); ++c) {
      gs_sweep_rows_ell(ell, s.colors_interior.group(c), rc, zs);
      gs_sweep_rows_ell(ell, s.colors_boundary.group(c), rc, zs);
    }
    EXPECT_EQ(std::memcmp(z_on.data(), z_off.data(), n * sizeof(T)), 0);
  });
}

TEST(OverlapBitIdentity, Fp64) { expect_overlap_bit_identity<double>(); }
TEST(OverlapBitIdentity, Fp32) { expect_overlap_bit_identity<float>(); }
TEST(OverlapBitIdentity, Bf16) { expect_overlap_bit_identity<bf16_t>(); }
TEST(OverlapBitIdentity, Fp16) { expect_overlap_bit_identity<fp16_t>(); }

// ---------------------------------------------------------------------------
// Solver-level equivalence: a full GMRES-IR solve under each configuration.

struct IrRun {
  std::vector<double> x;  ///< all ranks' owned entries, rank-concatenated
  int iterations = 0;
  bool converged = false;
  std::size_t cycle_tops = 0;  ///< outer residuals measured (history size)
};

IrRun run_gmres_ir(int ranks, const BenchParams& params, SolverOptions opts,
                   RecordingComm::Counts* counts = nullptr) {
  const ProcessGrid pgrid = ProcessGrid::create(ranks);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 8;
  pp.gamma = params.gamma;

  std::vector<std::vector<double>> xs(static_cast<std::size_t>(ranks));
  std::vector<SolveResult> results(static_cast<std::size_t>(ranks));
  std::vector<RecordingComm::Counts> rank_counts(
      static_cast<std::size_t>(ranks));
  opts.track_history = true;

  ThreadCommWorld::execute(ranks, [&](Comm& world_comm) {
    RecordingComm comm(world_comm);
    const auto slot = static_cast<std::size_t>(world_comm.rank());
    const ProblemHierarchy h =
        build_hierarchy(generate_problem(pgrid, world_comm.rank(), pp),
                        params.mg_levels, params.coloring_seed);
    Multigrid<float> mg(h, params);
    DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                             /*tag=*/90);
    GmresIr<float> solver(&a_d, &mg.level_op(0), &mg, opts);
    AlignedVector<double> x(h.levels[0].b.size(), 0.0);
    results[slot] = solver.solve(
        comm,
        std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
        std::span<double>(x.data(), x.size()));
    xs[slot].assign(x.begin(), x.end());
    rank_counts[slot] = comm.counts();
  });

  IrRun run;
  run.iterations = results[0].iterations;
  run.converged = results[0].converged();
  run.cycle_tops = results[0].history.size();
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].iterations,
              run.iterations);
    const auto& xr = xs[static_cast<std::size_t>(r)];
    run.x.insert(run.x.end(), xr.begin(), xr.end());
  }
  if (counts != nullptr) {
    *counts = rank_counts[0];
  }
  return run;
}

void expect_bitwise_equal(const IrRun& a, const IrRun& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.x.size(), b.x.size());
  EXPECT_EQ(std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(double)),
            0);
}

TEST(BatchedReductions, GmresIrBitIdenticalWithFewerAllreduces) {
  BenchParams params;
  SolverOptions opts;
  opts.max_iters = 60;
  opts.tol = 1e-10;
  // Same solve with the deadline trip lane and the SDC verdict lane riding
  // the packed reductions: they add lanes, never messages or bits.
  SolverOptions lanes_opts = opts;
  lanes_opts.control.deadline = Deadline::after(3600.0);
  lanes_opts.sdc.detect = true;

  RecordingComm::Counts counts;
  RecordingComm::Counts lanes_counts;
  const IrRun run = run_gmres_ir(2, params, opts, &counts);
  const IrRun lanes_run = run_gmres_ir(2, params, lanes_opts, &lanes_counts);
  EXPECT_TRUE(run.converged);
  expect_bitwise_equal(run, lanes_run);
  // ‖b‖, the first cycle-top ‖r‖², then ONE packed [‖r‖², finite-vote]
  // message per refinement cycle (it carries the next cycle-top norm), plus
  // CGS2's h1, h2 and β reductions per Arnoldi step. One allreduce per
  // scalar would add a second outer message every cycle.
  ASSERT_GE(run.cycle_tops, 2u);
  const std::size_t cycles = run.cycle_tops - 1;
  EXPECT_EQ(counts.allreduces,
            2u + cycles + 3u * static_cast<std::size_t>(run.iterations));
  EXPECT_EQ(lanes_counts.allreduces, counts.allreduces);
}

TEST(CommBackends, SelfMatchesSingleRankThreadWorld) {
  BenchParams params;
  SolverOptions opts;
  opts.max_iters = 60;
  opts.tol = 1e-10;

  std::vector<double> x_self;
  std::vector<double> x_thread;
  int iters_self = 0;
  int iters_thread = 0;

  const auto solve_on = [&](CommWorld& world, std::vector<double>& x_out,
                            int& iters_out) {
    world.execute([&](Comm& comm) {
      const ProblemHierarchy h = build_hierarchy(
          generate_problem(ProcessGrid(1, 1, 1), comm.rank(),
                           [] {
                             ProblemParams pp;
                             pp.nx = pp.ny = pp.nz = 8;
                             return pp;
                           }()),
          params.mg_levels, params.coloring_seed);
      Multigrid<float> mg(h, params);
      DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(),
                               params.opt, /*tag=*/90);
      GmresIr<float> solver(&a_d, &mg.level_op(0), &mg, opts);
      AlignedVector<double> x(h.levels[0].b.size(), 0.0);
      const SolveResult res = solver.solve(
          comm,
          std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
          std::span<double>(x.data(), x.size()));
      x_out.assign(x.begin(), x.end());
      iters_out = res.iterations;
    });
  };

  const std::unique_ptr<CommWorld> self =
      make_comm_world(CommBackend::Self, 1);
  EXPECT_EQ(self->backend(), CommBackend::Self);
  EXPECT_EQ(self->size(), 1);
  solve_on(*self, x_self, iters_self);

  const std::unique_ptr<CommWorld> thread =
      make_comm_world(CommBackend::Thread, 1);
  EXPECT_EQ(thread->backend(), CommBackend::Thread);
  solve_on(*thread, x_thread, iters_thread);

  EXPECT_EQ(iters_self, iters_thread);
  ASSERT_EQ(x_self.size(), x_thread.size());
  EXPECT_EQ(std::memcmp(x_self.data(), x_thread.data(),
                        x_self.size() * sizeof(double)),
            0);
}

TEST(CommBackends, MakeWorldRejectsBadConfigurations) {
  // Self is strictly one rank.
  EXPECT_THROW(make_comm_world(CommBackend::Self, 2), Error);
  // Without HPGMX_WITH_MPI (or outside mpirun at this size) the Mpi backend
  // must fail loudly, not fall back silently.
  if (!mpi_compiled()) {
    EXPECT_THROW(make_comm_world(CommBackend::Mpi, 4), Error);
  }
}

// ---------------------------------------------------------------------------
// Environment switches.

class EnvGuard {
 public:
  explicit EnvGuard(std::vector<const char*> names)
      : names_(std::move(names)) {}
  ~EnvGuard() {
    for (const char* name : names_) {
      ::unsetenv(name);
    }
  }

 private:
  std::vector<const char*> names_;
};

TEST(EnvParams, ParsesCommBackend) {
  const EnvGuard guard({"HPGMX_COMM"});

  EXPECT_EQ(BenchParams::from_env().comm_backend, CommBackend::Thread);
  ::setenv("HPGMX_COMM", "self", 1);
  EXPECT_EQ(BenchParams::from_env().comm_backend, CommBackend::Self);
  ::setenv("HPGMX_COMM", "mpi", 1);
  EXPECT_EQ(BenchParams::from_env().comm_backend, CommBackend::Mpi);
  ::setenv("HPGMX_COMM", "carrier-pigeon", 1);
  EXPECT_THROW(BenchParams::from_env(), Error);
}

}  // namespace
}  // namespace hpgmx
