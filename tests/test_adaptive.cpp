// Adaptive precision controller tests: oracle-driven transition logic
// (scenario-aware starts, promote-on-stagnation with patience, threshold
// edges, non-finite promotion, never-demote, recorder passivity), config
// validation/canonicalization/env parsing, the AdaptiveGmresIr driver's
// bit-identity contract when the controller is off, full adaptive solves to
// the double target on the catalog stress scenarios, and the adaptive
// fields' round-trip through ProblemDescriptor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/adaptive_ir.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"
#include "precision/precision.hpp"
#include "precision/scale_guard.hpp"
#include "precision_oracle.hpp"
#include "service/descriptor.hpp"

namespace hpgmx {
namespace {

AdaptiveConfig enabled_config() {
  AdaptiveConfig cfg;
  cfg.enabled = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// Start-rung selection

TEST(AdaptiveController, AutoStartPrefersTheFp32Rung) {
  // The default ladder has an fp32 rung, and fp32 is the measured knee of
  // contraction-per-byte — every scenario starts there, not at bf16.
  for (const Scenario sc : scenario_catalog()) {
    const PrecisionController c(enabled_config(), sc);
    EXPECT_EQ(c.current(), Precision::Fp32) << scenario_name(sc);
    EXPECT_EQ(c.rung(), 1) << scenario_name(sc);
  }
}

TEST(AdaptiveController, ExploratoryLadderStartsCheapestAndElevatesStress) {
  // An all-sub-fp32 ladder is exploratory: cheapest rung first, except the
  // low-precision stress scenarios start one rung higher (ROADMAP item 4).
  AdaptiveConfig cfg = enabled_config();
  cfg.ladder = {Precision::Fp16, Precision::Bf16};
  EXPECT_EQ(PrecisionController(cfg, Scenario::Poisson).current(),
            Precision::Fp16);
  EXPECT_EQ(PrecisionController(cfg, Scenario::Jump).current(),
            Precision::Bf16);
  EXPECT_EQ(PrecisionController(cfg, Scenario::Stretched).current(),
            Precision::Bf16);
}

TEST(AdaptiveController, ExplicitStartOverridesTheScenarioDefault) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  const PrecisionController c(cfg, Scenario::Jump);
  EXPECT_EQ(c.current(), Precision::Bf16);
  EXPECT_EQ(c.rung(), 0);
}

// ---------------------------------------------------------------------------
// Promote-on-stagnation (oracle-driven)

TEST(AdaptiveController, PromotesAfterPatienceConsecutiveStagnantCycles) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;  // patience = 2, threshold = 1e-3 (defaults)
  PrecisionController c(cfg);
  // Contraction 0.5 per cycle is far above the threshold: baseline, two
  // stagnant observations, promote — the third cycle runs at fp32.
  const auto steps = geometric_script(/*cycles=*/4, /*contraction=*/0.5);
  const OracleTrace t = drive_oracle(c, steps);
  EXPECT_EQ(t.residual_promotes, 1);
  EXPECT_FALSE(t.double_promote);
  EXPECT_EQ(c.promotions(), 1);
  ASSERT_EQ(c.records().size(), 4u);
  EXPECT_EQ(c.records()[0].precision, Precision::Bf16);
  EXPECT_EQ(c.records()[1].precision, Precision::Bf16);
  EXPECT_EQ(c.records()[2].precision, Precision::Fp32);
  EXPECT_EQ(c.records()[3].precision, Precision::Fp32);
}

TEST(AdaptiveController, HealthyCycleResetsThePatienceWindow) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  PrecisionController c(cfg);
  // stagnant, healthy (5 digits), stagnant, stagnant: the healthy cycle
  // breaks the first window, so promotion lands only after the second pair.
  const std::vector<OracleStep> steps = {
      {1.0, 10, false},  {0.5, 10, false},    {0.5e-5, 10, false},
      {0.25e-5, 10, false}, {0.125e-5, 10, false},
  };
  const OracleTrace t = drive_oracle(c, steps);
  EXPECT_EQ(t.residual_promotes, 1);
  ASSERT_EQ(c.records().size(), 5u);
  EXPECT_EQ(c.records()[3].precision, Precision::Bf16);
  EXPECT_EQ(c.records()[4].precision, Precision::Fp32);
}

TEST(AdaptiveController, ContractionExactlyAtThresholdIsStagnant) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  cfg.patience = 1;
  PrecisionController at(cfg);
  const std::vector<OracleStep> edge = {{1.0, 10, false},
                                        {cfg.stagnation_threshold, 10, false}};
  EXPECT_EQ(drive_oracle(at, edge).residual_promotes, 1);

  PrecisionController below(cfg);
  const double just_under =
      std::nextafter(cfg.stagnation_threshold, 0.0);
  const std::vector<OracleStep> healthy = {{1.0, 10, false},
                                           {just_under, 10, false}};
  EXPECT_EQ(drive_oracle(below, healthy).promotes(), 0);
  EXPECT_EQ(below.current(), Precision::Bf16);
}

TEST(AdaptiveController, NeverDemotesAndStopsAtTheTopRung) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  cfg.patience = 1;
  PrecisionController c(cfg);
  // Permanent stagnation climbs bf16 -> fp32 -> fp64 and then stays: the
  // ladder is monotone and bounded.
  const auto steps = geometric_script(/*cycles=*/10, /*contraction=*/0.9);
  (void)drive_oracle(c, steps);
  EXPECT_EQ(c.promotions(), 2);
  EXPECT_EQ(c.current(), Precision::Fp64);
  EXPECT_TRUE(c.at_top());
  int prev_rung = 0;
  for (const CycleRecord& r : c.records()) {
    EXPECT_GE(r.rung, prev_rung);  // monotone: no demotion anywhere
    prev_rung = r.rung;
  }
}

TEST(AdaptiveController, NonFinitePromotesImmediately) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  PrecisionController c(cfg);
  // No stagnation history needed: one rank-consistent overflow promotes.
  const std::vector<OracleStep> steps = {{1.0, 5, true}};
  const OracleTrace t = drive_oracle(c, steps);
  EXPECT_EQ(t.non_finite_promotes, 1);
  EXPECT_EQ(c.current(), Precision::Fp32);
}

TEST(AdaptiveController, NonFiniteAtTheTopFallsThroughToTheGuard) {
  AdaptiveConfig cfg = enabled_config();
  cfg.ladder = {Precision::Bf16, Precision::Fp32};  // auto start = fp32 = top
  PrecisionController c(cfg);
  ASSERT_TRUE(c.at_top());
  EXPECT_EQ(c.observe_non_finite(), CycleAction::Continue);
  EXPECT_EQ(c.promotions(), 0);
}

TEST(AdaptiveController, DisabledControllerObservesButNeverPromotes) {
  AdaptiveConfig cfg;  // enabled = false
  cfg.start = Precision::Bf16;
  PrecisionController c(cfg);
  std::vector<OracleStep> steps = geometric_script(5, 0.9);
  steps.push_back({0.9, 5, true});
  const OracleTrace t = drive_oracle(c, steps);
  EXPECT_EQ(t.promotes(), 0);
  EXPECT_EQ(c.current(), Precision::Bf16);
  EXPECT_EQ(c.records().size(), steps.size());  // still records every cycle
}

TEST(AdaptiveController, RecorderPinsItsScheduleAndNeverPromotes) {
  PrecisionController c = PrecisionController::recorder(
      *parse_precision_schedule("fp32,bf16"));
  EXPECT_FALSE(c.enabled());
  EXPECT_TRUE(c.at_top());
  EXPECT_EQ(c.current(), Precision::Fp32);
  EXPECT_EQ(c.schedule_for(0).to_string(), "fp32,bf16");
  EXPECT_EQ(c.schedule_for(7).to_string(), "fp32,bf16");  // rung-independent
  std::vector<OracleStep> steps = geometric_script(3, 0.99);
  steps.push_back({0.99, 5, true});
  EXPECT_EQ(drive_oracle(c, steps).promotes(), 0);
  ASSERT_EQ(c.records().size(), 4u);
  for (const CycleRecord& r : c.records()) {
    EXPECT_EQ(r.precision, Precision::Fp32);
  }
}

TEST(AdaptiveController, RecorderRejectsAnEmptySchedule) {
  EXPECT_THROW((void)PrecisionController::recorder(PrecisionSchedule{}),
               Error);
}

TEST(AdaptiveController, BeginSolveKeepsTheRungAndResetsTheBaseline) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  cfg.patience = 1;
  PrecisionController c(cfg);
  (void)drive_oracle(c, geometric_script(2, 0.5));  // promotes bf16 -> fp32
  ASSERT_EQ(c.promotions(), 1);
  c.begin_solve();
  EXPECT_EQ(c.current(), Precision::Fp32);  // promotion is operator knowledge
  // The first observation of the new solve is a baseline, not a (huge)
  // contraction against the previous solve's final residual...
  EXPECT_EQ(c.observe_residual(1.0), CycleAction::Continue);
  EXPECT_EQ(c.promotions(), 1);
  // ...but stagnation within the new solve still promotes.
  EXPECT_EQ(c.observe_residual(0.9), CycleAction::Promote);
  EXPECT_EQ(c.current(), Precision::Fp64);
}

TEST(AdaptiveController, TransitionsAreDeterministic) {
  AdaptiveConfig cfg = enabled_config();
  cfg.start = Precision::Bf16;
  std::vector<OracleStep> steps = geometric_script(6, 0.3);
  steps[3].non_finite = true;
  PrecisionController a(cfg);
  PrecisionController b(cfg);
  (void)drive_oracle(a, steps);
  (void)drive_oracle(b, steps);
  EXPECT_EQ(a.promotions(), b.promotions());
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].rung, b.records()[i].rung);
    EXPECT_EQ(a.records()[i].precision, b.records()[i].precision);
    EXPECT_EQ(a.records()[i].inner_iterations, b.records()[i].inner_iterations);
  }
  EXPECT_EQ(a.realized(), b.realized());
}

TEST(AdaptiveController, RungSchedulesNarrowCoarseLevelsAboveBf16) {
  const PrecisionController c(enabled_config());
  EXPECT_EQ(c.schedule_for(0).to_string(), "bf16");       // 2-byte: uniform
  EXPECT_EQ(c.schedule_for(1).to_string(), "fp32,bf16");  // progressive
  EXPECT_EQ(c.schedule_for(2).to_string(), "fp64,bf16");
  EXPECT_EQ(c.schedule().to_string(), "fp32,bf16");  // current() = fp32
}

// ---------------------------------------------------------------------------
// Config validation, canonical form, env parsing

TEST(AdaptiveConfigTest, ValidateRejectsUnusableConfigs) {
  AdaptiveConfig non_widening = enabled_config();
  non_widening.ladder = {Precision::Fp32, Precision::Bf16};
  EXPECT_THROW(non_widening.validate(), Error);

  AdaptiveConfig no_patience = enabled_config();
  no_patience.patience = 0;
  EXPECT_THROW(no_patience.validate(), Error);

  AdaptiveConfig bad_threshold = enabled_config();
  bad_threshold.stagnation_threshold = 0.0;
  EXPECT_THROW(bad_threshold.validate(), Error);

  AdaptiveConfig off_ladder = enabled_config();
  off_ladder.start = Precision::Fp16;  // not on the default ladder
  EXPECT_THROW(off_ladder.validate(), Error);

  AdaptiveConfig empty = enabled_config();
  empty.ladder = {};
  EXPECT_THROW(empty.validate(), Error);
}

TEST(AdaptiveConfigTest, CanonicalStringIsStableAndDistinguishing) {
  AdaptiveConfig off;
  EXPECT_EQ(off.to_string(), "off");

  AdaptiveConfig on = enabled_config();
  EXPECT_EQ(on.to_string(),
            "on(th=0.001,pat=2,ladder=bf16,fp32,fp64,start=auto)");
  on.start = Precision::Bf16;
  EXPECT_EQ(on.to_string(),
            "on(th=0.001,pat=2,ladder=bf16,fp32,fp64,start=bf16)");

  AdaptiveConfig other = enabled_config();
  EXPECT_TRUE(enabled_config() == enabled_config());
  other.stagnation_threshold = 0.5;
  EXPECT_FALSE(other == enabled_config());
  EXPECT_NE(other.to_string(), enabled_config().to_string());
}

TEST(AdaptiveConfigTest, FromEnvReadsEveryKnob) {
  ::setenv("HPGMX_ADAPTIVE", "on", 1);
  ::setenv("HPGMX_ADAPTIVE_THRESHOLD", "0.5", 1);
  ::setenv("HPGMX_ADAPTIVE_PATIENCE", "3", 1);
  ::setenv("HPGMX_ADAPTIVE_LADDER", "fp16,fp32", 1);
  ::setenv("HPGMX_ADAPTIVE_START", "fp16", 1);
  const AdaptiveConfig cfg = AdaptiveConfig::from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.stagnation_threshold, 0.5);
  EXPECT_EQ(cfg.patience, 3);
  EXPECT_EQ((std::vector<Precision>{Precision::Fp16, Precision::Fp32}),
            cfg.ladder);
  EXPECT_EQ(cfg.start, Precision::Fp16);

  ::setenv("HPGMX_ADAPTIVE", "not-a-switch", 1);
  EXPECT_THROW((void)AdaptiveConfig::from_env(), Error);

  ::unsetenv("HPGMX_ADAPTIVE");
  ::unsetenv("HPGMX_ADAPTIVE_THRESHOLD");
  ::unsetenv("HPGMX_ADAPTIVE_PATIENCE");
  ::unsetenv("HPGMX_ADAPTIVE_LADDER");
  ::unsetenv("HPGMX_ADAPTIVE_START");
  const AdaptiveConfig defaults = AdaptiveConfig::from_env();
  EXPECT_FALSE(defaults.enabled);
  EXPECT_TRUE(defaults == AdaptiveConfig{});
}

// ---------------------------------------------------------------------------
// AdaptiveGmresIr driver (real solves)

ProblemHierarchy make_hierarchy(local_index_t n, const BenchParams& params) {
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = n;
  pp.gamma = params.gamma;
  pp.scenario = params.scenario;
  return build_hierarchy(generate_problem(ProcessGrid(1, 1, 1), 0, pp),
                         params.mg_levels, params.coloring_seed);
}

/// The plain static GMRES-IR stack, exactly as SolverService built it
/// before the adaptive driver existed — the bit-identity reference.
SolveResult solve_static_reference(const ProblemHierarchy& h,
                                   const BenchParams& params,
                                   const SolverOptions& opts,
                                   std::span<double> x) {
  SelfComm comm;
  const std::vector<double> lvl_max = hierarchy_level_max_abs(h);
  const std::span<const double> lm(lvl_max.data(), lvl_max.size());
  ScaleGuard guard;
  guard.initialize(guard_reference_max_abs(lm, params.precision_schedule),
                   PrecisionTraits<float>::max_finite);
  Multigrid<float> mg(h, params, /*tag_base=*/100, guard.scale(),
                      params.precision_schedule, lm);
  DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                           /*tag=*/90);
  GmresIr<float> solver(&a_d, &mg.level_op(0), &mg, opts);
  solver.set_scale_guard(&guard);
  return solver.solve(
      comm,
      std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()), x);
}

TEST(AdaptiveGmresIrTest, DisabledControllerIsBitIdenticalToTheStaticPath) {
  BenchParams params;
  params.mg_levels = 3;
  params.adaptive.enabled = false;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SolverOptions opts;
  opts.max_iters = 3000;
  opts.tol = 1e-9;
  opts.track_history = true;

  AlignedVector<double> x_ref(h.levels[0].b.size(), 0.0);
  const SolveResult ref = solve_static_reference(
      h, params, opts, {x_ref.data(), x_ref.size()});

  SelfComm comm;
  AlignedVector<double> x_ad(h.levels[0].b.size(), 0.0);
  AdaptiveGmresIr solver(h, params, opts);
  const SolveResult ad = solver.solve(
      comm,
      std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      {x_ad.data(), x_ad.size()});

  ASSERT_TRUE(ref.converged());
  ASSERT_TRUE(ad.converged());
  EXPECT_EQ(ref.iterations, ad.iterations);
  EXPECT_EQ(ref.relative_residual, ad.relative_residual);
  ASSERT_EQ(ref.history.size(), ad.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    EXPECT_EQ(ref.history[i], ad.history[i]) << "cycle " << i;
  }
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    ASSERT_EQ(x_ref[i], x_ad[i]) << "x[" << i << "]";
  }
  // The passive recorder still reports the realized format sequence.
  const std::vector<Precision> realized = solver.controller().realized();
  ASSERT_FALSE(realized.empty());
  for (const Precision p : realized) {
    EXPECT_EQ(p, Precision::Fp32);
  }
  EXPECT_EQ(solver.controller().promotions(), 0);
}

TEST(AdaptiveGmresIrTest, AdaptiveSolvesTheStressScenariosToTheDoubleTarget) {
  for (const Scenario sc :
       {Scenario::Poisson, Scenario::Jump, Scenario::Stretched}) {
    BenchParams params;
    params.mg_levels = 3;
    params.scenario = ScenarioSpec{};
    params.scenario.kind = sc;
    params.adaptive.enabled = true;  // defaults: auto start at the fp32 rung
    const ProblemHierarchy h = make_hierarchy(16, params);
    SolverOptions opts;
    opts.max_iters = 3000;
    opts.tol = 1e-9;

    SelfComm comm;
    AlignedVector<double> x(h.levels[0].b.size(), 0.0);
    AdaptiveGmresIr solver(h, params, opts);
    const SolveResult res = solver.solve(
        comm,
        std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
        {x.data(), x.size()});
    EXPECT_TRUE(res.converged()) << scenario_name(sc);
    EXPECT_LE(res.relative_residual, 1e-9) << scenario_name(sc);
    EXPECT_FALSE(res.switch_requested);  // switches are serviced internally
    EXPECT_GT(solver.realized_bytes(), 0.0);
  }
}

TEST(AdaptiveGmresIrTest, Bf16StartIsRescuedByPromotionAndStillConverges) {
  BenchParams params;
  params.mg_levels = 3;
  params.adaptive.enabled = true;
  params.adaptive.start = Precision::Bf16;  // exploratory start
  const ProblemHierarchy h = make_hierarchy(16, params);
  SolverOptions opts;
  opts.max_iters = 3000;
  opts.tol = 1e-9;

  SelfComm comm;
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  AdaptiveGmresIr solver(h, params, opts);
  const SolveResult res = solver.solve(
      comm,
      std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      {x.data(), x.size()});
  ASSERT_TRUE(res.converged());
  EXPECT_LE(res.relative_residual, 1e-9);
  // bf16's roundoff-limited contraction trips the stagnation threshold:
  // the solve starts in bf16 and finishes in a wider format.
  const std::vector<Precision> realized = solver.controller().realized();
  ASSERT_GE(realized.size(), 2u);
  EXPECT_EQ(realized.front(), Precision::Bf16);
  EXPECT_NE(realized.back(), Precision::Bf16);
  EXPECT_GE(solver.controller().promotions(), 1);
}

// ---------------------------------------------------------------------------
// Descriptor identity

TEST(AdaptiveDescriptor, AdaptiveConfigRoundTripsAndChangesTheHash) {
  ProblemDescriptor d;
  d.adaptive = AdaptiveConfig{};
  const std::uint64_t static_hash = d.hash();
  EXPECT_NE(d.canonical().find("adaptive=off"), std::string::npos);

  d.adaptive.enabled = true;
  d.adaptive.start = Precision::Bf16;
  EXPECT_NE(d.canonical().find("adaptive=on("), std::string::npos);
  EXPECT_NE(d.hash(), static_hash);  // adaptive runs cache separately

  const BenchParams p = d.to_bench_params();
  EXPECT_TRUE(p.adaptive == d.adaptive);
  const ProblemDescriptor back =
      ProblemDescriptor::from_bench_params(p, d.ranks, d.solver);
  EXPECT_TRUE(back.adaptive == d.adaptive);
  EXPECT_EQ(back.canonical(), d.canonical());
  EXPECT_EQ(back.hash(), d.hash());
}

}  // namespace
}  // namespace hpgmx
