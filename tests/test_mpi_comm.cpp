// MpiComm integration test — a plain executable (no GoogleTest: each MPI
// process must run the whole program, and gtest's per-process result
// aggregation adds nothing under mpirun). Launched by CTest as
//   mpirun -np 4 test_mpi_comm
// when HPGMX_WITH_MPI=ON. Every check is an HPGMX_CHECK: a failure throws,
// the process exits nonzero, and mpirun propagates the failure to CTest.
//
// Coverage: point-to-point (blocking + nonblocking) on a ring, the
// determinism contract of the collectives (rank-ordered reduction, checked
// against a manually gathered oracle), 2-byte bf16 payloads, the halo
// exchange, and a GMRES-IR solve whose iterates all ranks must agree on.

#ifndef HPGMX_WITH_MPI

#include <cstdio>

int main() {
  std::printf("test_mpi_comm: built without HPGMX_WITH_MPI; nothing to do\n");
  return 0;
}

#else

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "comm/comm_world.hpp"
#include "comm/halo.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "grid/problem.hpp"
#include "precision/float16.hpp"

namespace hpgmx {
namespace {

void test_ring_point_to_point(Comm& comm) {
  const int rank = comm.rank();
  const int p = comm.size();
  const int right = (rank + 1) % p;
  const int left = (rank + p - 1) % p;

  // Blocking ring: post the receive via irecv first so the pattern is
  // deadlock-free at any size.
  std::vector<double> in(3, -1.0);
  Request rr = comm.irecv(left, 7, std::span<double>(in.data(), in.size()));
  const std::vector<double> out{1.0 * rank, 2.0 * rank, 3.0 * rank};
  comm.send(right, 7, std::span<const double>(out.data(), out.size()));
  rr.wait();
  for (int i = 0; i < 3; ++i) {
    HPGMX_CHECK(in[static_cast<std::size_t>(i)] == (i + 1.0) * left);
  }

  // Fully nonblocking, two tags in flight at once.
  std::vector<std::int32_t> in_a(1, -1), in_b(1, -1);
  Request ra = comm.irecv(left, 8, std::span<std::int32_t>(in_a.data(), 1));
  Request rb = comm.irecv(left, 9, std::span<std::int32_t>(in_b.data(), 1));
  const std::vector<std::int32_t> out_a{10 + rank}, out_b{20 + rank};
  Request sa =
      comm.isend(right, 8, std::span<const std::int32_t>(out_a.data(), 1));
  Request sb =
      comm.isend(right, 9, std::span<const std::int32_t>(out_b.data(), 1));
  ra.wait();
  rb.wait();
  sa.wait();
  sb.wait();
  HPGMX_CHECK(in_a[0] == 10 + left);
  HPGMX_CHECK(in_b[0] == 20 + left);
}

void test_deterministic_collectives(Comm& comm) {
  const int rank = comm.rank();
  const int p = comm.size();

  // Oracle: gather every rank's contribution, reduce in rank order on the
  // host side, and demand the allreduce report exactly those bits. The
  // pattern that would fail under raw MPI_Allreduce (unspecified order) on
  // values chosen to make fp addition order-sensitive.
  const double mine = (rank % 2 == 0 ? 1.0e16 : 1.0) + 0.001 * rank;
  std::vector<double> all(static_cast<std::size_t>(p), 0.0);
  comm.allgather(std::span<const double>(&mine, 1),
                 std::span<double>(all.data(), all.size()));
  double oracle = 0.0;
  for (int r = 0; r < p; ++r) {
    oracle += all[static_cast<std::size_t>(r)];
  }
  const double reduced = comm.allreduce_scalar(mine, ReduceOp::Sum);
  HPGMX_CHECK_MSG(std::memcmp(&reduced, &oracle, sizeof(double)) == 0,
                  "allreduce is not the rank-ordered sum");

  // Elementwise multi-double reduction (the batched-solver payload).
  const std::vector<double> vec{mine, static_cast<double>(rank)};
  std::vector<double> vec_out(2, 0.0);
  comm.allreduce(std::span<const double>(vec.data(), vec.size()),
                 std::span<double>(vec_out.data(), vec_out.size()),
                 ReduceOp::Sum);
  HPGMX_CHECK(std::memcmp(&vec_out[0], &oracle, sizeof(double)) == 0);
  HPGMX_CHECK(vec_out[1] == static_cast<double>(p * (p - 1) / 2));

  // Max, int64, and the 2-byte formats through the registered type_ops.
  HPGMX_CHECK(comm.allreduce_scalar(static_cast<std::int64_t>(rank),
                                    ReduceOp::Max) ==
              static_cast<std::int64_t>(p - 1));
  const bf16_t half_val(static_cast<float>(rank + 1));
  const bf16_t half_max = comm.allreduce_scalar(half_val, ReduceOp::Max);
  HPGMX_CHECK(static_cast<float>(half_max) == static_cast<float>(p));

  // Bcast from the last rank.
  std::vector<std::int64_t> payload(4, rank == p - 1 ? 77 : -1);
  comm.bcast(std::span<std::int64_t>(payload.data(), payload.size()), p - 1);
  for (const std::int64_t v : payload) {
    HPGMX_CHECK(v == 77);
  }
  comm.barrier();
}

HaloPattern ring_pattern(int rank, int p, local_index_t n_owned) {
  HaloPattern pat;
  pat.n_owned = n_owned;
  pat.n_halo = 0;
  const int left = (rank + p - 1) % p;
  const int right = (rank + 1) % p;
  HaloNeighbor nb_l;
  nb_l.rank = left;
  nb_l.send_indices = {0};
  nb_l.recv_offset = pat.n_halo;
  nb_l.recv_count = 1;
  pat.n_halo += 1;
  pat.neighbors.push_back(std::move(nb_l));
  HaloNeighbor nb_r;
  nb_r.rank = right;
  nb_r.send_indices = {n_owned - 1};
  nb_r.recv_offset = pat.n_halo;
  nb_r.recv_count = 1;
  pat.n_halo += 1;
  pat.neighbors.push_back(std::move(nb_r));
  return pat;
}

void test_halo_exchange_bf16(Comm& comm) {
  const int rank = comm.rank();
  const int p = comm.size();
  const local_index_t n = 4;
  const HaloPattern pat = ring_pattern(rank, p, n);
  HaloExchange<bf16_t> hx(&pat, /*tag=*/31);
  AlignedVector<bf16_t> x(static_cast<std::size_t>(pat.vector_length()),
                          bf16_t(0.0F));
  for (int round = 0; round < 5; ++round) {
    for (local_index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] =
          bf16_t(static_cast<float>(8 * rank + round + i));
    }
    hx.begin(comm, std::span<bf16_t>(x.data(), x.size()));
    HPGMX_CHECK(hx.in_flight());
    hx.finish(comm);
    const int left = (rank + p - 1) % p;
    const int right = (rank + 1) % p;
    HPGMX_CHECK(static_cast<float>(x[static_cast<std::size_t>(n)]) ==
                static_cast<float>(8 * left + round + (n - 1)));
    HPGMX_CHECK(static_cast<float>(x[static_cast<std::size_t>(n) + 1]) ==
                static_cast<float>(8 * right + round));
  }
}

void test_gmres_ir_solve(Comm& comm, const ProcessGrid& pgrid) {
  BenchParams params;
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 8;
  const ProblemHierarchy h =
      build_hierarchy(generate_problem(pgrid, comm.rank(), pp),
                      params.mg_levels, params.coloring_seed);
  Multigrid<float> mg(h, params);
  DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                           /*tag=*/90);
  SolverOptions opts;
  opts.max_iters = 60;
  opts.tol = 1e-10;
  GmresIr<float> solver(&a_d, &mg.level_op(0), &mg, opts);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult res = solver.solve(
      comm,
      std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(x.data(), x.size()));
  HPGMX_CHECK_MSG(res.converged(), "GMRES-IR failed to converge on MPI ranks");
  for (const double v : x) {
    HPGMX_CHECK(std::abs(v - 1.0) < 1e-5);
  }
  // Every rank must have taken the same trajectory.
  const auto iters_max = comm.allreduce_scalar(
      static_cast<std::int64_t>(res.iterations), ReduceOp::Max);
  HPGMX_CHECK(iters_max == static_cast<std::int64_t>(res.iterations));
}

int run() {
  const int p = mpi_world_size();
  HPGMX_CHECK_MSG(p >= 2, "run under mpirun with at least 2 ranks");
  const std::unique_ptr<CommWorld> world =
      make_comm_world(CommBackend::Mpi, p);
  HPGMX_CHECK(world->backend() == CommBackend::Mpi);
  HPGMX_CHECK(world->local_count() == 1);

  const ProcessGrid pgrid = ProcessGrid::create(p);
  world->execute([&](Comm& comm) {
    HPGMX_CHECK(comm.size() == p);
    test_ring_point_to_point(comm);
    test_deterministic_collectives(comm);
    test_halo_exchange_bf16(comm);
    test_gmres_ir_solve(comm, pgrid);
  });
  if (mpi_world_rank() == 0) {
    std::printf("test_mpi_comm: all checks passed on %d ranks\n", p);
  }
  return 0;
}

}  // namespace
}  // namespace hpgmx

int main() {
  try {
    return hpgmx::run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] FAILED: %s\n", hpgmx::mpi_world_rank(),
                 e.what());
    return 1;
  }
}

#endif  // HPGMX_WITH_MPI
