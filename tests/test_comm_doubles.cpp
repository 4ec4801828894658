// Tests for the Comm test doubles themselves, plus the properties they
// instrument: measured halo traffic equals the bytes model (fp64 and the
// 2-byte formats), packed solver reductions really remove allreduces without
// moving a bit, and the stack tolerates a misbehaving network (FaultyComm's
// reordered delivery and delayed completion).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm_doubles.hpp"

#include "comm/halo.hpp"
#include "comm/thread_comm.hpp"
#include "core/bytes_model.hpp"
#include "core/cg.hpp"
#include "core/dist_operator.hpp"
#include "grid/problem.hpp"
#include "precision/precision.hpp"

namespace hpgmx {
namespace {

// ---------------------------------------------------------------------------
// RecordingComm bookkeeping
// ---------------------------------------------------------------------------

TEST(RecordingComm, CountsPointToPointAndCollectives) {
  SelfComm self;
  RecordingComm rec(self);
  EXPECT_EQ(rec.rank(), 0);
  EXPECT_EQ(rec.size(), 1);

  const std::vector<double> out{1.0, 2.0, 3.0};
  rec.send(0, 5, std::span<const double>(out));
  std::vector<double> in(3, 0.0);
  rec.recv(0, 5, std::span<double>(in));
  EXPECT_EQ(in, out);

  std::vector<float> fin(2, 0.0f);
  Request rreq = rec.irecv(0, 6, std::span<float>(fin));
  const std::vector<float> fout{4.0f, 5.0f};
  Request sreq = rec.isend(0, 6, std::span<const float>(fout));
  sreq.wait();
  rreq.wait();
  EXPECT_EQ(fin, fout);

  (void)rec.allreduce_scalar(1.5, ReduceOp::Sum);
  std::vector<std::int64_t> gathered(1);
  rec.allgather(std::span<const std::int64_t>(gathered.data(), 1),
                std::span<std::int64_t>(gathered));
  std::vector<double> bc{7.0};
  rec.bcast(std::span<double>(bc), 0);
  rec.barrier();

  const RecordingComm::Counts& c = rec.counts();
  EXPECT_EQ(c.sends, 1u);
  EXPECT_EQ(c.recvs, 1u);
  EXPECT_EQ(c.isends, 1u);
  EXPECT_EQ(c.irecvs, 1u);
  EXPECT_EQ(c.send_payload_bytes, 3 * sizeof(double) + 2 * sizeof(float));
  EXPECT_EQ(c.recv_payload_bytes, 3 * sizeof(double) + 2 * sizeof(float));
  EXPECT_EQ(c.allreduces, 1u);
  EXPECT_EQ(c.allreduce_payload_bytes, sizeof(double));
  EXPECT_EQ(c.allgathers, 1u);
  EXPECT_EQ(c.bcasts, 1u);
  EXPECT_EQ(c.barriers, 1u);

  rec.reset();
  EXPECT_EQ(rec.counts().sends, 0u);
  EXPECT_EQ(rec.counts().send_payload_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Measured halo traffic vs the bytes model, on real operators
// ---------------------------------------------------------------------------

/// One spmv and one gs_forward over RecordingComm; each performs exactly one
/// halo exchange, whose measured payload must equal both the bytes-model
/// prediction and HaloExchange<T>::bytes_per_exchange().
template <typename T>
void expect_halo_bytes_match_model() {
  ThreadCommWorld::execute(4, [](Comm& comm) {
    const ProcessGrid pgrid = ProcessGrid::create(4);
    ProblemParams pp;
    pp.nx = pp.ny = pp.nz = 4;
    const Problem prob = generate_problem(pgrid, comm.rank(), pp);
    const OperatorStructure s = build_structure(prob, 42);
    DistOperator<T> op(prob.a, &s, OptLevel::Optimized, 10);

    const double model = halo_exchange_bytes(
        static_cast<std::int64_t>(s.halo.total_send_count()),
        static_cast<std::int64_t>(s.halo.n_halo), sizeof(T));
    {
      HaloExchange<T> hx(&s.halo, /*tag=*/99);
      ASSERT_EQ(static_cast<double>(hx.bytes_per_exchange()), model);
    }

    RecordingComm rec(comm);
    AlignedVector<T> x(static_cast<std::size_t>(op.vec_len()), T(0));
    for (local_index_t i = 0; i < op.num_owned(); ++i) {
      x[static_cast<std::size_t>(i)] =
          static_cast<T>(0.01 * i + comm.rank());
    }
    AlignedVector<T> y(static_cast<std::size_t>(op.num_owned()), T(0));
    op.spmv(rec, std::span<T>(x.data(), x.size()),
            std::span<T>(y.data(), y.size()));
    const auto measured_spmv = static_cast<double>(
        rec.counts().send_payload_bytes + rec.counts().recv_payload_bytes);
    ASSERT_EQ(measured_spmv, model) << "spmv halo traffic, rank "
                                    << comm.rank();

    rec.reset();
    AlignedVector<T> r(static_cast<std::size_t>(op.num_owned()), T(0));
    for (local_index_t i = 0; i < op.num_owned(); ++i) {
      r[static_cast<std::size_t>(i)] = static_cast<T>(prob.b[i]);
    }
    op.gs_forward(rec, std::span<const T>(r.data(), r.size()),
                  std::span<T>(x.data(), x.size()));
    const auto measured_gs = static_cast<double>(
        rec.counts().send_payload_bytes + rec.counts().recv_payload_bytes);
    ASSERT_EQ(measured_gs, model) << "gs halo traffic, rank " << comm.rank();
  });
}

TEST(HaloBytesModel, Fp64TrafficMatchesPrediction) {
  expect_halo_bytes_match_model<double>();
}

TEST(HaloBytesModel, Bf16TrafficIsTwoBytePayload) {
  static_assert(sizeof(bf16_t) == 2);
  expect_halo_bytes_match_model<bf16_t>();
}

TEST(HaloBytesModel, Fp16TrafficIsTwoBytePayload) {
  static_assert(sizeof(fp16_t) == 2);
  expect_halo_bytes_match_model<fp16_t>();
}

TEST(HaloBytesModel, HalvedValueWidthHalvesTraffic) {
  // The memory-wall argument on the wire: same pattern, half the bytes.
  const std::int64_t send = 123;
  const std::int64_t recv = 77;
  EXPECT_EQ(halo_exchange_bytes(send, recv, sizeof(bf16_t)) * 2.0,
            halo_exchange_bytes(send, recv, sizeof(float)));
  EXPECT_EQ(halo_exchange_bytes(send, recv, sizeof(float)) * 2.0,
            halo_exchange_bytes(send, recv, sizeof(double)));
}

// ---------------------------------------------------------------------------
// Packed reductions: fewer allreduces, identical bits
// ---------------------------------------------------------------------------

TEST(BatchedReductions, CgSendsFewerMessagesWithIdenticalIterates) {
  constexpr int kRanks = 2;
  constexpr int kIters = 8;
  std::array<std::vector<double>, 2> solutions;
  std::array<std::size_t, 2> reductions{};
  for (const bool lanes : {false, true}) {
    const std::size_t which = lanes ? 1 : 0;
    ThreadCommWorld::execute(kRanks, [&](Comm& comm) {
      const ProcessGrid pgrid = ProcessGrid::create(kRanks);
      ProblemParams pp;
      pp.nx = pp.ny = pp.nz = 4;
      const Problem prob = generate_problem(pgrid, comm.rank(), pp);
      const OperatorStructure s = build_structure(prob, 42);
      DistOperator<double> op(prob.a, &s, OptLevel::Optimized, 10);
      SolverOptions opts;
      opts.max_iters = kIters;
      opts.tol = 0.0;  // fixed iteration count: message counts comparable
      if (lanes) {
        // Trip and verdict lanes (and, every audit_interval iterations, the
        // true-residual audit) ride the packed message.
        opts.control.deadline = Deadline::after(3600.0);
        opts.sdc.detect = true;
        opts.sdc.audit_interval = 4;
      }
      ConjugateGradient<double> cg(&op, /*mg=*/nullptr, opts);
      RecordingComm rec(comm);
      AlignedVector<double> x(static_cast<std::size_t>(op.num_owned()), 0.0);
      const SolveResult res =
          cg.solve(rec, std::span<const double>(prob.b.data(), prob.b.size()),
                   std::span<double>(x.data(), x.size()));
      EXPECT_EQ(res.iterations, kIters);
      if (comm.rank() == 0) {
        reductions[which] = rec.counts().allreduces;
        solutions[which].assign(x.begin(), x.end());
      }
    });
  }
  // ‖b‖, then per iteration the packed [‖r‖², ⟨r,z⟩] message and spmv_dot's
  // ⟨Ap, p⟩: 2 reductions where one allreduce per scalar would send 3.
  EXPECT_EQ(reductions[0], 1u + 2u * kIters);
  EXPECT_EQ(reductions[1], reductions[0]);
  ASSERT_EQ(solutions[0].size(), solutions[1].size());
  EXPECT_EQ(0, std::memcmp(solutions[0].data(), solutions[1].data(),
                           solutions[0].size() * sizeof(double)))
      << "control/SDC lanes changed the iterates";
}

// ---------------------------------------------------------------------------
// FaultyComm: reordered delivery and delayed completion are harmless
// ---------------------------------------------------------------------------

TEST(FaultyComm, ReversesWithheldSendsButMatchingByTagHolds) {
  ThreadCommWorld::execute(2, [](Comm& comm) {
    FaultyComm faulty(comm, {.delay_us = 0, .reorder_sends = true});
    if (comm.rank() == 0) {
      const std::vector<std::int32_t> a{1}, b{2};
      faulty.send(1, 100, std::span<const std::int32_t>(a));
      faulty.send(1, 200, std::span<const std::int32_t>(b));
      faulty.barrier();  // forces the (reversed) flush
    } else {
      faulty.barrier();
      std::vector<std::int32_t> a(1), b(1);
      faulty.recv(0, 100, std::span<std::int32_t>(a));
      faulty.recv(0, 200, std::span<std::int32_t>(b));
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
  });
}

TEST(FaultyComm, HaloExchangeAndSpmvSurviveReorderAndDelay) {
  ThreadCommWorld::execute(4, [](Comm& comm) {
    const ProcessGrid pgrid = ProcessGrid::create(4);
    ProblemParams pp;
    pp.nx = pp.ny = pp.nz = 4;
    const Problem prob = generate_problem(pgrid, comm.rank(), pp);
    const OperatorStructure s = build_structure(prob, 42);
    DistOperator<double> op_plain(prob.a, &s, OptLevel::Optimized, 10);
    DistOperator<double> op_faulty(prob.a, &s, OptLevel::Optimized, 20);

    AlignedVector<double> x(static_cast<std::size_t>(op_plain.vec_len()), 0.0);
    for (local_index_t i = 0; i < op_plain.num_owned(); ++i) {
      x[static_cast<std::size_t>(i)] = 0.01 * i - comm.rank();
    }
    AlignedVector<double> x2 = x;
    AlignedVector<double> y1(static_cast<std::size_t>(op_plain.num_owned()),
                             0.0);
    AlignedVector<double> y2(y1.size(), 0.0);

    op_plain.spmv(comm, std::span<double>(x.data(), x.size()),
                  std::span<double>(y1.data(), y1.size()));
    {
      FaultyComm faulty(comm, {.delay_us = 200, .reorder_sends = true});
      op_faulty.spmv(faulty, std::span<double>(x2.data(), x2.size()),
                     std::span<double>(y2.data(), y2.size()));
    }
    ASSERT_EQ(0,
              std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(double)))
        << "a reordering/delaying network changed the product, rank "
        << comm.rank();
    ASSERT_EQ(0, std::memcmp(x.data(), x2.data(), x.size() * sizeof(double)))
        << "halo contents diverged, rank " << comm.rank();
  });
}

TEST(FaultyComm, CollectivesUnaffected) {
  ThreadCommWorld::execute(3, [](Comm& comm) {
    FaultyComm faulty(comm, {.delay_us = 50, .reorder_sends = true});
    const double sum = faulty.allreduce_scalar(
        static_cast<double>(comm.rank() + 1), ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(sum, 6.0);
    std::vector<std::int64_t> all(3);
    const std::vector<std::int64_t> mine{comm.rank() * 7LL};
    faulty.allgather(std::span<const std::int64_t>(mine),
                     std::span<std::int64_t>(all));
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 7);
    }
  });
}

}  // namespace
}  // namespace hpgmx
