// Service-layer tests: descriptor hashing, operator cache (hit identity,
// LRU order, stats), solve queue (async tickets, concurrent-submit
// determinism, drain-on-shutdown, submit-after-shutdown), many-RHS solves
// (bitwise vs independent single-RHS solves), and the scenario generators
// (symmetry, diagonal dominance, Poisson bit-identity, coarsening).
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "comm/chaos.hpp"
#include "comm/comm.hpp"
#include "core/cg.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"
#include "grid/scenario.hpp"
#include "service/solver_service.hpp"

namespace hpgmx {
namespace {

ServiceConfig svc_config(int workers, std::size_t queue,
                         std::size_t cache) {
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

ProblemDescriptor small_descriptor() {
  ProblemDescriptor d;
  d.nx = d.ny = d.nz = 8;
  d.mg_levels = 3;
  d.tol = 1e-9;
  d.max_iters = 2000;
  return d;
}

// ---------------------------------------------------------------- descriptor

TEST(Descriptor, HashIsStableAcrossCallsAndCopies) {
  const ProblemDescriptor a = small_descriptor();
  const ProblemDescriptor b = small_descriptor();
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), a.hash());
}

TEST(Descriptor, EveryFieldChangesTheCanonicalForm) {
  const ProblemDescriptor base = small_descriptor();
  std::vector<ProblemDescriptor> variants;
  auto vary = [&](auto&& mutate) {
    ProblemDescriptor d = base;
    mutate(d);
    variants.push_back(d);
  };
  vary([](ProblemDescriptor& d) { d.nx = 16; });
  vary([](ProblemDescriptor& d) { d.ranks = 2; });
  vary([](ProblemDescriptor& d) { d.mg_levels = 2; });
  vary([](ProblemDescriptor& d) { d.gamma = 0.25; });
  vary([](ProblemDescriptor& d) { d.coloring_seed = 7; });
  vary([](ProblemDescriptor& d) { d.opt = OptLevel::Reference; });
  vary([](ProblemDescriptor& d) { d.solver = SolverKind::Cg; });
  vary([](ProblemDescriptor& d) { d.inner_precision = Precision::Bf16; });
  vary([](ProblemDescriptor& d) {
    d.schedule = *parse_precision_schedule("fp32,bf16");
  });
  vary([](ProblemDescriptor& d) { d.tol = 1e-6; });
  vary([](ProblemDescriptor& d) { d.max_iters = 3; });
  vary([](ProblemDescriptor& d) { d.restart = 10; });
  vary([](ProblemDescriptor& d) { d.scenario.kind = Scenario::Jump; });
  vary([](ProblemDescriptor& d) {
    d.scenario.kind = Scenario::Jump;
    d.scenario.jump_ratio = 2.0;
  });
  vary([](ProblemDescriptor& d) {
    d.scenario.kind = Scenario::Stretched;
    d.scenario.stretch = 1.0625;
  });
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].canonical(), base.canonical()) << "variant " << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i].canonical(), variants[j].canonical())
          << "variants " << i << " vs " << j;
    }
  }
}

TEST(Descriptor, SolverKindParsesRoundTrip) {
  for (const SolverKind k :
       {SolverKind::Gmres, SolverKind::GmresIr, SolverKind::Cg}) {
    EXPECT_EQ(parse_solver_kind(solver_kind_name(k)), k);
  }
  EXPECT_FALSE(parse_solver_kind("bicgstab").has_value());
}

// --------------------------------------------------------------------- cache

TEST(OperatorCache, HitReturnsTheSameEntryBitIdentically) {
  OperatorCache cache(4);
  const ProblemDescriptor d = small_descriptor();
  bool hit = true;
  const auto first = cache.get_or_build(d, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_build(d, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // literally the same operator

  // And the cached build is bit-identical to an independent fresh build.
  const auto fresh = OperatorCache::build_entry(d);
  ASSERT_EQ(first->hierarchy.size(), fresh->hierarchy.size());
  const CsrMatrix<double>& a = first->hierarchy[0].levels[0].a;
  const CsrMatrix<double>& b = fresh->hierarchy[0].levels[0].a;
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(a.values[i], b.values[i]) << "nnz " << i;
  }
  EXPECT_EQ(first->level_max, fresh->level_max);
}

TEST(OperatorCache, EvictsInLruOrder) {
  OperatorCache cache(2);
  ProblemDescriptor a = small_descriptor();
  ProblemDescriptor b = small_descriptor();
  b.coloring_seed = 1;
  ProblemDescriptor c = small_descriptor();
  c.coloring_seed = 2;

  bool hit = false;
  (void)cache.get_or_build(a, &hit);
  (void)cache.get_or_build(b, &hit);
  (void)cache.get_or_build(a, &hit);  // touch a: b is now least recent
  EXPECT_TRUE(hit);
  (void)cache.get_or_build(c, &hit);  // capacity 2: evicts b, keeps a+c
  EXPECT_FALSE(hit);
  (void)cache.get_or_build(a, &hit);
  EXPECT_TRUE(hit);
  (void)cache.get_or_build(c, &hit);
  EXPECT_TRUE(hit);
  (void)cache.get_or_build(b, &hit);
  EXPECT_FALSE(hit);  // b was the LRU victim
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(OperatorCache, StatsTrackHitsMissesAndBytes) {
  OperatorCache cache(4);
  const ProblemDescriptor d = small_descriptor();
  (void)cache.get_or_build(d);
  (void)cache.get_or_build(d);
  (void)cache.get_or_build(d);
  const OperatorCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);
  // 8^3 fine level alone is 512 rows x 27 nnz x 8 B ≈ 110 KiB.
  EXPECT_GT(s.bytes, 100000u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// --------------------------------------------------------------------- queue

TEST(SolverService, SecondSubmitOfIdenticalDescriptorHitsTheCache) {
  SolverService service(svc_config(1, 4, 4));
  SolveRequest req;
  req.desc = small_descriptor();
  const ServiceResult first = service.submit(req).get();
  const ServiceResult second = service.submit(req).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(first.all_converged());
  EXPECT_TRUE(second.all_converged());
  // Identical request, identical (bitwise) result.
  ASSERT_EQ(first.rhs.size(), second.rhs.size());
  EXPECT_EQ(first.rhs[0].iterations, second.rhs[0].iterations);
  EXPECT_EQ(first.rhs[0].relative_residual, second.rhs[0].relative_residual);
  EXPECT_LT(second.setup_seconds, first.setup_seconds);
}

TEST(SolverService, ConcurrentSubmitsAreDeterministic) {
  // A serial reference result, then the same request submitted 8 times from
  // 4 threads onto 4 workers: every ticket must reproduce it bitwise.
  SolveRequest req;
  req.desc = small_descriptor();
  req.num_rhs = 2;
  req.rhs_spread = 0.5;
  SolveRequest other;  // interleave a second descriptor for extra contention
  other.desc = small_descriptor();
  other.desc.gamma = 0.125;

  ServiceResult reference;
  {
    SolverService serial(svc_config(1, 4, 4));
    reference = serial.solve_now(req);
  }
  ASSERT_TRUE(reference.all_converged());

  SolverService service(svc_config(4, 16, 4));
  std::vector<std::future<ServiceResult>> tickets(8);
  std::vector<std::future<ServiceResult>> noise(4);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      tickets[static_cast<std::size_t>(2 * t)] = service.submit(req);
      noise[static_cast<std::size_t>(t)] = service.submit(other);
      tickets[static_cast<std::size_t>(2 * t + 1)] = service.submit(req);
    });
  }
  for (std::thread& s : submitters) {
    s.join();
  }
  for (auto& ticket : tickets) {
    const ServiceResult r = ticket.get();
    ASSERT_EQ(r.rhs.size(), reference.rhs.size());
    for (std::size_t j = 0; j < r.rhs.size(); ++j) {
      EXPECT_EQ(r.rhs[j].iterations, reference.rhs[j].iterations);
      EXPECT_EQ(r.rhs[j].relative_residual,
                reference.rhs[j].relative_residual);
    }
    EXPECT_EQ(r.descriptor_hash, reference.descriptor_hash);
  }
  for (auto& ticket : noise) {
    EXPECT_TRUE(ticket.get().all_converged());
  }
}

TEST(SolverService, BoundedQueueStillCompletesEverything) {
  // capacity 1 on a single worker: submits block (backpressure) instead of
  // failing, and every ticket still resolves.
  SolverService service(svc_config(1, 1, 2));
  SolveRequest req;
  req.desc = small_descriptor();
  std::vector<std::future<ServiceResult>> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(service.submit(req));
  }
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.get().all_converged());
  }
}

TEST(SolverService, ShutdownDrainsOutstandingRequests) {
  SolveRequest req;
  req.desc = small_descriptor();
  std::vector<std::future<ServiceResult>> tickets;
  SolverService service(svc_config(1, 8, 2));
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.submit(req));
  }
  service.shutdown();  // must not abandon queued work
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.get().all_converged());
  }
  EXPECT_THROW((void)service.submit(req), Error);
}

TEST(SolverService, MultiRankRequestMatchesSingleRankIterations) {
  SolveRequest req;
  req.desc = small_descriptor();
  SolverService service(svc_config(1, 4, 4));
  const ServiceResult one = service.solve_now(req);
  req.desc.ranks = 2;
  const ServiceResult two = service.solve_now(req);
  EXPECT_TRUE(one.all_converged());
  EXPECT_TRUE(two.all_converged());
  // Different global problems (2x the domain) — just sanity, not equality.
  EXPECT_GT(two.rhs[0].iterations, 0);
}

TEST(SolverService, CgAndGmresKindsSolveTheSymmetricProblem) {
  SolverService service(svc_config(1, 4, 4));
  for (const SolverKind kind :
       {SolverKind::Gmres, SolverKind::Cg, SolverKind::GmresIr}) {
    SolveRequest req;
    req.desc = small_descriptor();
    req.desc.solver = kind;
    const ServiceResult r = service.solve_now(req);
    EXPECT_TRUE(r.all_converged()) << solver_kind_name(kind);
    EXPECT_LT(r.rhs[0].relative_residual, 1e-9) << solver_kind_name(kind);
  }
}

TEST(SolverService, GmresIrReportsTheRealizedPrecisionSequence) {
  SolverService service(svc_config(1, 4, 4));

  // Static GMRES-IR: every executed inner cycle ran the configured format.
  SolveRequest req;
  req.desc = small_descriptor();
  req.desc.solver = SolverKind::GmresIr;
  req.num_rhs = 2;
  const ServiceResult stat = service.solve_now(req);
  EXPECT_TRUE(stat.all_converged());
  ASSERT_FALSE(stat.realized_precisions.empty());
  for (const Precision p : stat.realized_precisions) {
    EXPECT_EQ(p, req.desc.inner_precision);
  }

  // Adaptive GMRES-IR: a different cache identity, and the realized
  // sequence reports what the controller ran (the auto start rung here).
  req.desc.adaptive.enabled = true;
  EXPECT_NE(req.desc.hash(), small_descriptor().hash());
  const ServiceResult adap = service.solve_now(req);
  EXPECT_TRUE(adap.all_converged());
  ASSERT_FALSE(adap.realized_precisions.empty());
  EXPECT_EQ(adap.realized_precisions.front(), Precision::Fp32);

  // Plain double GMRES has no inner-format trajectory to report.
  req.desc.adaptive = AdaptiveConfig{};
  req.desc.solver = SolverKind::Gmres;
  const ServiceResult plain = service.solve_now(req);
  EXPECT_TRUE(plain.all_converged());
  EXPECT_TRUE(plain.realized_precisions.empty());
}

// ----------------------------------------------------------------- many-RHS

TEST(ManyRhs, GmresIrBatchMatchesIndependentSolvesBitwise) {
  const ProcessGrid pgrid(1, 1, 1);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 8;
  BenchParams params;
  const ProblemHierarchy h =
      build_hierarchy(generate_problem(pgrid, 0, pp), 3, params.coloring_seed);
  const std::vector<double> lvl_max = hierarchy_level_max_abs(h);
  SolverOptions opts;
  opts.max_iters = 2000;
  opts.tol = 1e-9;
  SelfComm comm;
  const int batch = 3;
  const auto n = h.levels[0].b.size();

  const auto make_rhs = [&](MultiVector<double>& rhs) {
    for (int j = 0; j < batch; ++j) {
      set_column_scaled(
          rhs, j,
          std::span<const double>(h.levels[0].b.data(), n),
          1.0 + 0.5 * j);
    }
  };
  const auto make_stack = [&](auto&& run) {
    ScaleGuard guard;
    guard.initialize(
        guard_reference_max_abs(
            std::span<const double>(lvl_max.data(), lvl_max.size()),
            params.precision_schedule),
        PrecisionTraits<float>::max_finite);
    Multigrid<float> mg_low(h, params, /*tag_base=*/100, guard.scale(),
                            params.precision_schedule,
                            std::span<const double>(lvl_max.data(),
                                                    lvl_max.size()));
    DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                             /*tag=*/90);
    GmresIr<float> solver(&a_d, &mg_low.level_op(0), &mg_low, opts);
    solver.set_scale_guard(&guard);
    run(solver);
  };

  MultiVector<double> rhs(static_cast<local_index_t>(n), batch);
  MultiVector<double> x_batch(static_cast<local_index_t>(n), batch);
  make_rhs(rhs);
  std::vector<SolveResult> batch_results;
  make_stack([&](GmresIr<float>& solver) {
    batch_results = solver.solve_many(comm, rhs, x_batch);
  });
  ASSERT_EQ(batch_results.size(), static_cast<std::size_t>(batch));

  for (int j = 0; j < batch; ++j) {
    MultiVector<double> b1(static_cast<local_index_t>(n), batch);
    make_rhs(b1);
    AlignedVector<double> x(n, 0.0);
    SolveResult single;
    make_stack([&](GmresIr<float>& solver) {
      single = solver.solve(comm, b1.column(j),
                            std::span<double>(x.data(), x.size()));
    });
    EXPECT_TRUE(single.converged());
    EXPECT_EQ(single.iterations, batch_results[static_cast<std::size_t>(j)]
                                     .iterations) << "rhs " << j;
    EXPECT_EQ(single.relative_residual,
              batch_results[static_cast<std::size_t>(j)].relative_residual)
        << "rhs " << j;
    const auto xb = x_batch.column(j);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[i], xb[i]) << "rhs " << j << " entry " << i;
    }
  }
}

TEST(ManyRhs, CgBatchMatchesIndependentSolvesBitwise) {
  const ProcessGrid pgrid(1, 1, 1);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 8;
  BenchParams params;
  const ProblemHierarchy h =
      build_hierarchy(generate_problem(pgrid, 0, pp), 3, params.coloring_seed);
  SolverOptions opts;
  opts.max_iters = 2000;
  opts.tol = 1e-9;
  SelfComm comm;
  const int batch = 2;
  const auto n = h.levels[0].b.size();

  MultiVector<double> rhs(static_cast<local_index_t>(n), batch);
  MultiVector<double> x_batch(static_cast<local_index_t>(n), batch);
  for (int j = 0; j < batch; ++j) {
    set_column_scaled(rhs, j,
                      std::span<const double>(h.levels[0].b.data(), n),
                      1.0 + 0.25 * j);
  }
  std::vector<SolveResult> batch_results;
  {
    SymmetricMultigrid<double> mg(h, params);
    ConjugateGradient<double> cg(&mg.level_op(0), &mg, opts);
    batch_results = cg.solve_many(comm, rhs, x_batch);
  }
  for (int j = 0; j < batch; ++j) {
    SymmetricMultigrid<double> mg(h, params);
    ConjugateGradient<double> cg(&mg.level_op(0), &mg, opts);
    AlignedVector<double> x(n, 0.0);
    const SolveResult single = cg.solve(
        comm, rhs.column(j), std::span<double>(x.data(), x.size()));
    EXPECT_TRUE(single.converged());
    EXPECT_EQ(single.iterations,
              batch_results[static_cast<std::size_t>(j)].iterations);
    const auto xb = x_batch.column(j);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[i], xb[i]) << "rhs " << j << " entry " << i;
    }
  }
}

// ---------------------------------------------------------------- scenarios

ScenarioSpec test_spec(Scenario kind) {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.jump_period = 2;  // several blocks inside an 8^3 test grid
  return spec;
}

TEST(Scenarios, ParseAndNameRoundTrip) {
  for (const Scenario sc : scenario_catalog()) {
    EXPECT_EQ(parse_scenario(scenario_name(sc)), sc);
  }
  EXPECT_EQ(parse_scenario("convection-diffusion"), Scenario::ConvDiff);
  EXPECT_FALSE(parse_scenario("helmholtz").has_value());
}

TEST(Scenarios, OperatorsAreSymmetricAtGammaZero) {
  const ProcessGrid pgrid(1, 1, 1);
  for (const Scenario sc : scenario_catalog()) {
    ProblemParams pp;
    pp.nx = pp.ny = pp.nz = 8;
    pp.scenario = test_spec(sc);
    const Problem prob = generate_problem(pgrid, 0, pp);
    std::map<std::pair<local_index_t, local_index_t>, double> entries;
    for (local_index_t row = 0; row < prob.a.num_rows; ++row) {
      for (std::int64_t e = prob.a.row_ptr[static_cast<std::size_t>(row)];
           e < prob.a.row_ptr[static_cast<std::size_t>(row) + 1]; ++e) {
        entries[{row, prob.a.col_idx[static_cast<std::size_t>(e)]}] =
            prob.a.values[static_cast<std::size_t>(e)];
      }
    }
    for (const auto& [ij, v] : entries) {
      const auto it = entries.find({ij.second, ij.first});
      ASSERT_NE(it, entries.end()) << scenario_name(sc);
      ASSERT_EQ(v, it->second)
          << scenario_name(sc) << " (" << ij.first << "," << ij.second << ")";
    }
  }
}

TEST(Scenarios, OperatorsAreDiagonallyDominant) {
  const ProcessGrid pgrid(1, 1, 1);
  for (const Scenario sc : scenario_catalog()) {
    ProblemParams pp;
    pp.nx = pp.ny = pp.nz = 8;
    pp.scenario = test_spec(sc);
    const Problem prob = generate_problem(pgrid, 0, pp);
    bool strict_somewhere = false;
    for (local_index_t row = 0; row < prob.a.num_rows; ++row) {
      double diag = 0.0;
      double off = 0.0;
      for (std::int64_t e = prob.a.row_ptr[static_cast<std::size_t>(row)];
           e < prob.a.row_ptr[static_cast<std::size_t>(row) + 1]; ++e) {
        const double v = prob.a.values[static_cast<std::size_t>(e)];
        if (prob.a.col_idx[static_cast<std::size_t>(e)] == row) {
          diag = v;
        } else {
          off += std::abs(v);
        }
      }
      ASSERT_GE(diag, off * (1.0 - 1e-12))
          << scenario_name(sc) << " row " << row;
      strict_somewhere = strict_somewhere || diag > off * (1.0 + 1e-12);
    }
    // Boundary rows keep their out-of-domain couplings on the diagonal.
    EXPECT_TRUE(strict_somewhere) << scenario_name(sc);
  }
}

TEST(Scenarios, DefaultPoissonReproducesTheBenchmarkMatrixBitwise) {
  const ProcessGrid pgrid(1, 1, 1);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 6;
  pp.gamma = 0.3;
  const Problem prob = generate_problem(pgrid, 0, pp);  // default scenario
  const GridBox& box = prob.box;
  for (local_index_t row = 0; row < prob.a.num_rows; ++row) {
    const local_index_t i = row % box.nx;
    const local_index_t j = (row / box.nx) % box.ny;
    const local_index_t k = row / (box.nx * box.ny);
    const global_index_t my_gid = box.global_id(i, j, k);
    for (std::int64_t e = prob.a.row_ptr[static_cast<std::size_t>(row)];
         e < prob.a.row_ptr[static_cast<std::size_t>(row) + 1]; ++e) {
      const local_index_t col = prob.a.col_idx[static_cast<std::size_t>(e)];
      const double v = prob.a.values[static_cast<std::size_t>(e)];
      const global_index_t col_gid = box.global_id(
          col % box.nx, (col / box.nx) % box.ny, col / (box.nx * box.ny));
      if (col == row) {
        ASSERT_EQ(v, 26.0);
      } else if (col_gid > my_gid) {
        ASSERT_EQ(v, -1.0 - pp.gamma);
      } else {
        ASSERT_EQ(v, -1.0 + pp.gamma);
      }
    }
  }
}

TEST(Scenarios, CoarsenedSpecHalvesPeriodsAndSquaresStretch) {
  ScenarioSpec spec = test_spec(Scenario::Jump);
  spec.jump_period = 8;
  EXPECT_EQ(spec.coarsened().jump_period, 4);
  EXPECT_EQ(spec.coarsened().coarsened().coarsened().coarsened().jump_period,
            1);  // clamps at 1
  ScenarioSpec st = test_spec(Scenario::Stretched);
  st.stretch = 1.25;
  EXPECT_EQ(st.coarsened().stretch, 1.25 * 1.25);
  // Coarse problems in a hierarchy carry the coarsened spec.
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = 8;
  pp.scenario = spec;
  const ProblemHierarchy h =
      build_hierarchy(generate_problem(ProcessGrid(1, 1, 1), 0, pp), 3, 42);
  ASSERT_GE(h.levels.size(), 2u);
  EXPECT_EQ(h.levels[1].scenario.jump_period, 4);
}

TEST(Scenarios, GmresIrConvergesOnEveryScenario) {
  SolverService service(svc_config(1, 4, 8));
  for (const Scenario sc : scenario_catalog()) {
    SolveRequest req;
    req.desc = small_descriptor();
    req.desc.scenario = test_spec(sc);
    req.desc.gamma = sc == Scenario::ConvDiff ? 0.0625 : 0.0;
    const ServiceResult r = service.solve_now(req);
    EXPECT_TRUE(r.all_converged()) << scenario_name(sc);
    EXPECT_LT(r.rhs[0].relative_residual, 1e-9) << scenario_name(sc);
  }
}

}  // namespace
}  // namespace hpgmx
