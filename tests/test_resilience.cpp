// Resilience tests: the SolveStatus taxonomy, rank-consistent deadline /
// cancellation trips (base/cancel.hpp), the deterministic chaos layer
// (comm/chaos.hpp), and the service-level failure handling — structured
// zero-RHS rejection, bounded-wait try_submit, retry-with-promotion, and
// shutdown under concurrent load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/solve_status.hpp"
#include "comm/chaos.hpp"
#include "comm/comm.hpp"
#include "comm/thread_comm.hpp"
#include "core/gmres.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"
#include "grid/process_grid.hpp"
#include "service/solver_service.hpp"

namespace hpgmx {
namespace {

// ------------------------------------------------------------------ taxonomy

TEST(SolveStatusTaxonomy, NamesAreStable) {
  EXPECT_EQ(solve_status_name(SolveStatus::Converged), "converged");
  EXPECT_EQ(solve_status_name(SolveStatus::Stagnated), "stagnated");
  EXPECT_EQ(solve_status_name(SolveStatus::NonFinite), "non_finite");
  EXPECT_EQ(solve_status_name(SolveStatus::DeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(solve_status_name(SolveStatus::Cancelled), "cancelled");
  EXPECT_EQ(solve_status_name(SolveStatus::Rejected), "rejected");
}

TEST(SolveStatusTaxonomy, AggregateStatusIsWorstOfBatch) {
  EXPECT_EQ(aggregate_status({}), SolveStatus::Rejected);
  auto with = [](std::vector<SolveStatus> statuses) {
    std::vector<SolveResult> rhs(statuses.size());
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      rhs[i].status = statuses[i];
    }
    return aggregate_status(rhs);
  };
  EXPECT_EQ(with({SolveStatus::Converged, SolveStatus::Converged}),
            SolveStatus::Converged);
  EXPECT_EQ(with({SolveStatus::Converged, SolveStatus::Stagnated}),
            SolveStatus::Stagnated);
  EXPECT_EQ(with({SolveStatus::NonFinite, SolveStatus::Stagnated}),
            SolveStatus::NonFinite);
  EXPECT_EQ(with({SolveStatus::DeadlineExceeded, SolveStatus::NonFinite}),
            SolveStatus::DeadlineExceeded);
  EXPECT_EQ(with({SolveStatus::Converged, SolveStatus::Cancelled}),
            SolveStatus::Cancelled);
}

// -------------------------------------------------------- deadline and token

TEST(Deadline, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.finite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_seconds(),
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(Deadline::never().finite());
}

TEST(Deadline, AfterNonPositiveIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::after(0.0).expired());
  EXPECT_TRUE(Deadline::after(-1.0).expired());
  EXPECT_LE(Deadline::after(-1.0).remaining_seconds(), 0.0);
}

TEST(Deadline, AfterFutureIsFiniteAndPending) {
  const Deadline d = Deadline::after(3600.0);
  EXPECT_TRUE(d.finite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3000.0);
}

TEST(CancelToken, CancellationIsSticky) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

// ---------------------------------------------------------- trip lane codec

TEST(SolveControl, DefaultIsInert) {
  const SolveControl ctl;
  EXPECT_FALSE(ctl.active());
  EXPECT_EQ(ctl.trip_lane(4), 0.0);
}

TEST(SolveControl, LaneEncodesCancelAboveDeadline) {
  CancelToken token;
  SolveControl ctl;
  ctl.cancel = &token;
  EXPECT_TRUE(ctl.active());
  EXPECT_EQ(ctl.trip_lane(4), 0.0);

  ctl.deadline = Deadline::after(-1.0);
  EXPECT_EQ(ctl.trip_lane(4), 1.0);  // deadline expired

  token.cancel();
  EXPECT_EQ(ctl.trip_lane(4), 5.0);  // cancel outranks the deadline
}

TEST(SolveControl, DecodeIsUnambiguousForEveryMixedSum) {
  // P ranks, d of them seeing an expired deadline and c seeing the token:
  // the reduced sum d·1 + c·(P+1) must decode to the worst cause present.
  for (const int p : {1, 2, 4, 8}) {
    for (int d = 0; d <= p; ++d) {
      for (int c = 0; c + d <= p; ++c) {
        const double sum = d * 1.0 + c * (p + 1.0);
        const TripCause cause = SolveControl::decode_trip(sum, p);
        if (c > 0) {
          EXPECT_EQ(cause, TripCause::Cancelled) << p << " " << d << " " << c;
        } else if (d > 0) {
          EXPECT_EQ(cause, TripCause::DeadlineExpired) << p << " " << d;
        } else {
          EXPECT_EQ(cause, TripCause::None) << p;
        }
      }
    }
  }
}

TEST(SolveControl, TripStatusMapsCauses) {
  EXPECT_EQ(trip_status(TripCause::DeadlineExpired),
            SolveStatus::DeadlineExceeded);
  EXPECT_EQ(trip_status(TripCause::Cancelled), SolveStatus::Cancelled);
}

// ------------------------------------------------------------- chaos config

TEST(ChaosConfig, DisabledByDefaultAndForOffSpec) {
  EXPECT_FALSE(ChaosConfig{}.enabled());
  EXPECT_FALSE(ChaosConfig::parse("").enabled());
  EXPECT_FALSE(ChaosConfig::parse("off").enabled());
  EXPECT_EQ(ChaosConfig{}.to_string(), "off");
}

TEST(ChaosConfig, ParsesEveryKey) {
  const ChaosConfig cfg = ChaosConfig::parse(
      "delay:0.25,reorder:0.5,slow_rank:1,delay_us:7,slow_us:9");
  EXPECT_TRUE(cfg.enabled());
  EXPECT_DOUBLE_EQ(cfg.delay_prob, 0.25);
  EXPECT_DOUBLE_EQ(cfg.reorder_prob, 0.5);
  EXPECT_EQ(cfg.slow_rank, 1);
  EXPECT_EQ(cfg.delay_us, 7);
  EXPECT_EQ(cfg.slow_us, 9);
}

TEST(ChaosConfig, ToStringRoundTripsThroughParse) {
  ChaosConfig cfg;
  cfg.delay_prob = 0.125;
  cfg.reorder_prob = 0.75;
  cfg.slow_rank = 2;
  cfg.delay_us = 13;
  cfg.slow_us = 17;
  const ChaosConfig back = ChaosConfig::parse(cfg.to_string());
  EXPECT_DOUBLE_EQ(back.delay_prob, cfg.delay_prob);
  EXPECT_DOUBLE_EQ(back.reorder_prob, cfg.reorder_prob);
  EXPECT_EQ(back.slow_rank, cfg.slow_rank);
  EXPECT_EQ(back.delay_us, cfg.delay_us);
  EXPECT_EQ(back.slow_us, cfg.slow_us);
}

TEST(ChaosConfig, RejectsMalformedSpecsWithStructuredErrors) {
  EXPECT_THROW((void)ChaosConfig::parse("delay"), Error);           // no colon
  EXPECT_THROW((void)ChaosConfig::parse("delay:abc"), Error);       // bad value
  EXPECT_THROW((void)ChaosConfig::parse("delay:1.5"), Error);       // p > 1
  EXPECT_THROW((void)ChaosConfig::parse("reorder:-0.1"), Error);    // p < 0
  EXPECT_THROW((void)ChaosConfig::parse("delay_us:-5"), Error);     // negative
  EXPECT_THROW((void)ChaosConfig::parse("frobnicate:1"), Error);    // unknown
}

// ------------------------------------------------- solver-level trip checks

SolverOptions solver_options() {
  SolverOptions opts;
  opts.max_iters = 500;
  opts.tol = 1e-9;
  return opts;
}

/// Run double GMRES on the 16³ global Poisson problem over `p` thread
/// ranks; returns the per-rank results and concatenated per-rank solutions.
std::vector<SolveResult> run_gmres(int p, const SolverOptions& opts,
                                   std::vector<std::vector<double>>* sols,
                                   const ChaosConfig* chaos = nullptr) {
  const ProcessGrid pgrid = ProcessGrid::create(p);
  ProblemParams pp;
  pp.nx = static_cast<local_index_t>(16 / pgrid.px());
  pp.ny = static_cast<local_index_t>(16 / pgrid.py());
  pp.nz = static_cast<local_index_t>(16 / pgrid.pz());
  BenchParams params;
  params.mg_levels = 2;
  std::vector<SolveResult> results(static_cast<std::size_t>(p));
  if (sols != nullptr) {
    sols->assign(static_cast<std::size_t>(p), {});
  }
  ThreadCommWorld::execute(p, [&](Comm& world_comm) {
    std::unique_ptr<ChaosComm> chaotic;
    if (chaos != nullptr && chaos->enabled()) {
      chaotic = std::make_unique<ChaosComm>(world_comm, *chaos);
    }
    Comm& comm = chaotic != nullptr ? *chaotic : world_comm;
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
    if (sols != nullptr) {
      (*sols)[static_cast<std::size_t>(comm.rank())]
          .assign(x.begin(), x.end());
    }
  });
  return results;
}

TEST(SolverTrips, PreExpiredDeadlineExitsAtIterationZeroOnSelf) {
  SolverOptions opts = solver_options();
  opts.control.deadline = Deadline::after(-1.0);
  std::vector<std::vector<double>> sols;
  const std::vector<SolveResult> res = run_gmres(1, opts, &sols);
  EXPECT_EQ(res[0].status, SolveStatus::DeadlineExceeded);
  EXPECT_EQ(res[0].iterations, 0);
  EXPECT_DOUBLE_EQ(res[0].relative_residual, 1.0);  // x0 = 0 at the trip
  for (const double v : sols[0]) {
    EXPECT_EQ(v, 0.0);  // iterate untouched by a tripped exit
  }
}

TEST(SolverTrips, PreExpiredDeadlineIsRankConsistentOnFourRanks) {
  SolverOptions opts = solver_options();
  opts.control.deadline = Deadline::after(-1.0);
  const std::vector<SolveResult> res = run_gmres(4, opts, nullptr);
  for (const SolveResult& r : res) {
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.iterations, res[0].iterations);
    EXPECT_EQ(r.iterations, 0);
  }
}

TEST(SolverTrips, MidSolveDeadlineExitsTheSameIterationOnEveryRank) {
  // An unreachable tolerance forces the solver to run until the deadline
  // trips mid-solve; the trip decision is decoded from the shared reduced
  // lane, so all four ranks must report the same iteration count even
  // though their clocks saw the expiry at different instants.
  SolverOptions opts = solver_options();
  opts.tol = 0.0;
  opts.max_iters = 1000000;
  opts.control.deadline = Deadline::after(0.02);
  const std::vector<SolveResult> res = run_gmres(4, opts, nullptr);
  for (const SolveResult& r : res) {
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.iterations, res[0].iterations);
  }
}

TEST(SolverTrips, PreCancelledTokenWinsOverExpiredDeadline) {
  CancelToken token;
  token.cancel();
  SolverOptions opts = solver_options();
  opts.control.cancel = &token;
  opts.control.deadline = Deadline::after(-1.0);
  const std::vector<SolveResult> res = run_gmres(2, opts, nullptr);
  for (const SolveResult& r : res) {
    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_EQ(r.iterations, 0);
  }
}

TEST(SolverTrips, MidSolveCancellationStopsEveryRankTogether) {
  auto token = std::make_shared<CancelToken>();
  SolverOptions opts = solver_options();
  opts.tol = 0.0;
  opts.max_iters = 1000000;
  opts.control.cancel = token.get();
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token->cancel();
  });
  const std::vector<SolveResult> res = run_gmres(2, opts, nullptr);
  canceller.join();
  for (const SolveResult& r : res) {
    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_EQ(r.iterations, res[0].iterations);
  }
}

TEST(SolverTrips, ActiveButUntrippedControlIsBitIdenticalToControlFree) {
  // A finite-but-far deadline activates the packed trip-lane reduction;
  // entry 0 of that message must reproduce the stand-alone norm bit for
  // bit, so the whole solve matches the control-free run exactly.
  const SolverOptions plain = solver_options();
  SolverOptions active = solver_options();
  active.control.deadline = Deadline::after(1e6);
  ASSERT_TRUE(active.control.active());
  for (const int p : {1, 4}) {
    std::vector<std::vector<double>> sols_plain;
    std::vector<std::vector<double>> sols_active;
    const std::vector<SolveResult> a = run_gmres(p, plain, &sols_plain);
    const std::vector<SolveResult> b = run_gmres(p, active, &sols_active);
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(a[i].status, SolveStatus::Converged);
      EXPECT_EQ(b[i].status, SolveStatus::Converged);
      EXPECT_EQ(a[i].iterations, b[i].iterations);
      EXPECT_EQ(a[i].relative_residual, b[i].relative_residual);
      EXPECT_EQ(sols_plain[i], sols_active[i]);
    }
  }
}

// ------------------------------------------------------------ chaos harness

TEST(ChaosHarness, FaultInjectionNeverChangesSolverBits) {
  // Chaos perturbs timing and delivery order only; the solve under any
  // seed must be bitwise identical to the fault-free run.
  const SolverOptions opts = solver_options();
  std::vector<std::vector<double>> sols_ref;
  const std::vector<SolveResult> ref = run_gmres(4, opts, &sols_ref);
  ChaosConfig chaos = ChaosConfig::parse(
      "delay:0.5,reorder:0.5,slow_rank:1,delay_us:1,slow_us:1");
  for (const std::uint64_t seed : {7ull, 20260808ull}) {
    chaos.seed = seed;
    std::vector<std::vector<double>> sols;
    const std::vector<SolveResult> res = run_gmres(4, opts, &sols, &chaos);
    for (std::size_t r = 0; r < res.size(); ++r) {
      EXPECT_EQ(res[r].status, SolveStatus::Converged);
      EXPECT_EQ(res[r].iterations, ref[r].iterations) << "seed " << seed;
      EXPECT_EQ(res[r].relative_residual, ref[r].relative_residual);
      EXPECT_EQ(sols[r], sols_ref[r]) << "seed " << seed << " rank " << r;
    }
  }
}

TEST(ChaosHarness, DrawSequenceIsDeterministicPerSeed) {
  ChaosConfig chaos = ChaosConfig::parse("delay:0.5,reorder:0.5,delay_us:1");
  auto run = [&chaos] {
    SelfComm self;
    ChaosComm comm(self, chaos);
    std::vector<double> payload{1.0, 2.0};
    std::vector<double> out(2, 0.0);
    for (int i = 0; i < 8; ++i) {
      comm.send_bytes(0, i, payload.data(), payload.size() * sizeof(double));
      comm.recv_bytes(0, i, out.data(), out.size() * sizeof(double));
    }
    return comm.draws();
  };
  const std::uint64_t first = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(run(), first);  // same seed, same operations, same draws
  chaos.seed ^= 0xBEEF;
  const std::uint64_t reseeded = run();
  EXPECT_EQ(run(), reseeded);
}

// ------------------------------------------------------------- service layer

ServiceConfig svc_config(int workers, std::size_t queue, std::size_t cache) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue;
  cfg.cache_entries = cache;
  // Ambient HPGMX_CHAOS runs the whole service suite under fault injection
  // (the sanitizer lanes do this); every assertion below must hold anyway,
  // because chaos perturbs timing and ordering, never values.
  cfg.chaos = ChaosConfig::from_env();
  return cfg;
}

SolveRequest quick_request() {
  SolveRequest req;
  req.desc.nx = req.desc.ny = req.desc.nz = 8;
  req.desc.mg_levels = 3;
  req.desc.tol = 1e-9;
  req.desc.max_iters = 300;
  return req;
}

/// The retry exhibit: a checkerboard-jump operator whose coefficient range
/// overwhelms fp16 even through the ScaleGuard (the guard exhausts its
/// backoff budget → non_finite) but sits comfortably inside bf16's range.
SolveRequest fragile_fp16_request() {
  SolveRequest req = quick_request();
  req.desc.scenario.kind = Scenario::Jump;
  req.desc.scenario.jump_period = 4;
  req.desc.scenario.jump_ratio = 1e6;
  req.desc.solver = SolverKind::GmresIr;
  req.desc.inner_precision = Precision::Fp16;
  return req;
}

TEST(ServiceResilience, ZeroRhsIsRejectedNotSolved) {
  SolverService svc(svc_config(1, 4, 4));
  SolveRequest req = quick_request();
  req.num_rhs = 0;

  const ServiceResult direct = svc.solve_now(req);
  EXPECT_EQ(direct.status, SolveStatus::Rejected);
  EXPECT_FALSE(direct.all_converged());
  EXPECT_TRUE(direct.rhs.empty());
  EXPECT_TRUE(direct.attempts.empty());
  EXPECT_EQ(direct.descriptor_hash, req.desc.hash());

  std::future<ServiceResult> queued = svc.submit(req);
  EXPECT_EQ(queued.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // resolved without touching a worker
  EXPECT_EQ(queued.get().status, SolveStatus::Rejected);

  auto bounded = svc.try_submit(req, std::chrono::milliseconds(1));
  ASSERT_TRUE(bounded.has_value());
  EXPECT_EQ(bounded->get().status, SolveStatus::Rejected);
}

TEST(ServiceResilience, RetryPromotesThroughTheLadder) {
  SolverService svc(svc_config(1, 4, 4));
  const ServiceResult res = svc.solve_now(fragile_fp16_request());
  EXPECT_EQ(res.status, SolveStatus::Converged);
  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts[0].precision, Precision::Fp16);
  EXPECT_EQ(res.attempts[0].status, SolveStatus::NonFinite);
  EXPECT_EQ(res.attempts[1].precision, Precision::Bf16);
  EXPECT_EQ(res.attempts[1].status, SolveStatus::Converged);
  EXPECT_LT(res.attempts[1].relative_residual, 1e-9);
  // The served attempt's realized per-cycle formats are all promoted.
  ASSERT_FALSE(res.realized_precisions.empty());
  for (const Precision p : res.realized_precisions) {
    EXPECT_EQ(p, Precision::Bf16);
  }
}

TEST(ServiceResilience, DisabledRetrySurfacesTheRawFailure) {
  ServiceConfig cfg = svc_config(1, 4, 4);
  cfg.retry.enabled = false;
  SolverService svc(cfg);
  const ServiceResult res = svc.solve_now(fragile_fp16_request());
  EXPECT_EQ(res.status, SolveStatus::NonFinite);
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_EQ(res.attempts[0].precision, Precision::Fp16);
  EXPECT_EQ(res.attempts[0].status, SolveStatus::NonFinite);
  EXPECT_GT(res.attempts[0].relative_residual, 0.0);  // last reduced value
}

TEST(ServiceResilience, DeadlineTripIsNeverRetried) {
  SolverService svc(svc_config(1, 4, 4));
  SolveRequest req = fragile_fp16_request();
  req.deadline = Deadline::after(-1.0);
  const ServiceResult res = svc.solve_now(req);
  EXPECT_EQ(res.status, SolveStatus::DeadlineExceeded);
  ASSERT_EQ(res.attempts.size(), 1u);  // no promotion after a trip
  EXPECT_EQ(res.attempts[0].status, SolveStatus::DeadlineExceeded);
  EXPECT_EQ(res.attempts[0].iterations, 0);
}

TEST(ServiceResilience, CancelledRequestReportsCancelled) {
  SolverService svc(svc_config(1, 4, 4));
  SolveRequest req = quick_request();
  req.cancel = std::make_shared<CancelToken>();
  req.cancel->cancel();
  const ServiceResult res = svc.solve_now(req);
  EXPECT_EQ(res.status, SolveStatus::Cancelled);
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_EQ(res.attempts[0].iterations, 0);
}

TEST(ServiceResilience, DeadlineIsRankConsistentAcrossServiceRanks) {
  SolverService svc(svc_config(1, 4, 4));
  SolveRequest req = quick_request();
  req.desc.ranks = 4;
  req.desc.tol = 1e-30;  // unreachable: runs until the deadline trips
  req.desc.max_iters = 1000000;

  // Warm the operator cache for this exact descriptor first, with a
  // cancellable request that is cancelled once its entry is cached, so the
  // 20 ms deadline below can only trip inside the solve and never during
  // the cold 4-rank build (which a sanitizer build can make slower).
  SolveRequest warm = req;
  warm.cancel = std::make_shared<CancelToken>();
  std::future<ServiceResult> warming = svc.submit(warm);
  while (svc.cache_stats().entries == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  warm.cancel->cancel();
  (void)warming.get();

  req.deadline = Deadline::after(0.02);
  const ServiceResult res = svc.solve_now(req);
  EXPECT_TRUE(res.cache_hit);
  EXPECT_EQ(res.status, SolveStatus::DeadlineExceeded);
  ASSERT_EQ(res.rhs.size(), 1u);
  EXPECT_EQ(res.rhs[0].status, SolveStatus::DeadlineExceeded);
}

TEST(ServiceResilience, ChaosInjectionKeepsServiceResultsBitIdentical) {
  SolveRequest req = quick_request();
  req.desc.ranks = 2;
  req.desc.solver = SolverKind::GmresIr;
  req.desc.inner_precision = Precision::Bf16;

  SolverService plain(svc_config(1, 4, 4));
  const ServiceResult ref = plain.solve_now(req);
  ASSERT_EQ(ref.status, SolveStatus::Converged);

  ServiceConfig cfg = svc_config(1, 4, 4);
  cfg.chaos = ChaosConfig::parse(
      "delay:0.5,reorder:0.5,slow_rank:0,delay_us:1,slow_us:1");
  for (const std::uint64_t seed : {1ull, 99ull}) {
    cfg.chaos.seed = seed;
    SolverService chaotic(cfg);
    const ServiceResult res = chaotic.solve_now(req);
    EXPECT_EQ(res.status, SolveStatus::Converged);
    ASSERT_EQ(res.rhs.size(), ref.rhs.size());
    for (std::size_t j = 0; j < ref.rhs.size(); ++j) {
      EXPECT_EQ(res.rhs[j].iterations, ref.rhs[j].iterations);
      EXPECT_EQ(res.rhs[j].relative_residual, ref.rhs[j].relative_residual);
    }
    EXPECT_EQ(res.realized_precisions, ref.realized_precisions);
  }
}

TEST(ServiceResilience, TrySubmitTimesOutUnderBackpressure) {
  // One worker pinned on a cancellable long solve + a queue of one: the
  // bounded-wait submit must give up instead of blocking forever.
  SolverService svc(svc_config(1, 1, 4));
  auto token = std::make_shared<CancelToken>();
  SolveRequest slow = quick_request();
  slow.desc.tol = 1e-30;
  slow.desc.max_iters = 1000000;
  slow.cancel = token;

  std::future<ServiceResult> running = svc.submit(slow);
  // Wait for the worker to dequeue it so the next submit owns the queue.
  for (int i = 0; i < 5000 && svc.queued() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(svc.queued(), 0u);
  std::future<ServiceResult> waiting = svc.submit(slow);  // fills the queue

  auto overflow = svc.try_submit(quick_request(), std::chrono::milliseconds(50));
  EXPECT_FALSE(overflow.has_value());  // timed out in backpressure

  token->cancel();  // unblock both queued solves
  EXPECT_EQ(running.get().status, SolveStatus::Cancelled);
  EXPECT_EQ(waiting.get().status, SolveStatus::Cancelled);
}

TEST(ServiceResilience, ShutdownUnderLoadResolvesEveryFuture) {
  auto svc = std::make_unique<SolverService>(svc_config(2, 2, 4));
  std::mutex mu;
  std::vector<std::future<ServiceResult>> tickets;
  std::atomic<int> refused{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        SolveRequest req = quick_request();
        req.desc.tol = 1e-6;
        auto ticket = svc->try_submit(req, std::chrono::milliseconds(20));
        if (!ticket.has_value()) {
          refused.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        tickets.push_back(std::move(*ticket));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  svc->shutdown();  // races the submitters on purpose
  for (std::thread& t : submitters) {
    t.join();
  }
  EXPECT_TRUE(svc->shutting_down());

  // Every accepted ticket resolves — served or structurally cancelled —
  // and post-shutdown submission fails in the documented ways.
  for (std::future<ServiceResult>& f : tickets) {
    const ServiceResult res = f.get();
    EXPECT_TRUE(res.status == SolveStatus::Converged ||
                res.status == SolveStatus::Cancelled)
        << solve_status_name(res.status);
  }
  EXPECT_FALSE(
      svc->try_submit(quick_request(), std::chrono::milliseconds(1))
          .has_value());
  EXPECT_THROW((void)svc->submit(quick_request()), Error);
}

}  // namespace
}  // namespace hpgmx
