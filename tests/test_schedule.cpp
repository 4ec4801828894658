// Progressive-precision multigrid tests: PrecisionSchedule parsing
// (round-trips, rejection of unknown formats), the schedule-driven
// heterogeneous V-cycle (mixed fp32,bf16 matching uniform fp32 within
// tolerance; the degenerate uniform schedule reproducing the single-format
// path exactly), per-level ScaleGuard equilibration for fp16 coarse levels
// on a badly scaled system, and the per-level V-cycle bytes model.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/benchmark.hpp"
#include "core/bytes_model.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"
#include "precision/precision.hpp"
#include "precision/scale_guard.hpp"

namespace hpgmx {
namespace {

// ---------------------------------------------------------------------------
// Schedule parsing

TEST(PrecisionSchedule, ParsesAndRoundTrips) {
  for (const char* s :
       {"fp32", "fp32,bf16", "fp32,bf16,bf16,fp16", "fp64,fp64", "fp16"}) {
    const auto parsed = parse_precision_schedule(s);
    ASSERT_TRUE(parsed.has_value()) << s;
    EXPECT_EQ(parsed->to_string(), s);
    // to_string -> parse is the identity too.
    const auto reparsed = parse_precision_schedule(parsed->to_string());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->levels, parsed->levels);
  }
}

TEST(PrecisionSchedule, AcceptsAliasesAndNormalizes) {
  const auto parsed = parse_precision_schedule("float,bfloat16,half,double");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_string(), "fp32,bf16,fp16,fp64");
}

TEST(PrecisionSchedule, RejectsUnknownFormatsAndMalformedLists) {
  for (const char* s : {"", "fp32,", ",fp32", "fp32,,bf16", "fp32,int8",
                        "fp42", "fp32;bf16", "fp32, bf16"}) {
    EXPECT_FALSE(parse_precision_schedule(s).has_value()) << s;
  }
}

TEST(PrecisionSchedule, ClampsBeyondItsLastEntry) {
  const auto s = parse_precision_schedule("fp32,bf16");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->entry(), Precision::Fp32);
  EXPECT_EQ(s->at(1), Precision::Bf16);
  EXPECT_EQ(s->at(2), Precision::Bf16);  // extends with the last entry
  EXPECT_EQ(s->at(7), Precision::Bf16);
  EXPECT_FALSE(s->uniform());
  EXPECT_TRUE(parse_precision_schedule("bf16,bf16")->uniform());
}

TEST(PrecisionSchedule, EnvUnsetAndEmptyYieldTheUniformSchedule) {
  // Unset and set-but-empty both mean "no override": the empty schedule,
  // which keeps the single-format inner_precision path.
  unsetenv("HPGMX_TEST_SCHEDULE");
  EXPECT_TRUE(schedule_from_env("HPGMX_TEST_SCHEDULE").empty());
  setenv("HPGMX_TEST_SCHEDULE", "", /*overwrite=*/1);
  EXPECT_TRUE(schedule_from_env("HPGMX_TEST_SCHEDULE").empty());
  unsetenv("HPGMX_TEST_SCHEDULE");
}

TEST(PrecisionSchedule, EnvParsingIsCaseInsensitive) {
  setenv("HPGMX_TEST_SCHEDULE", "FP32,Bf16,BFLOAT16,Half", /*overwrite=*/1);
  const PrecisionSchedule s = schedule_from_env("HPGMX_TEST_SCHEDULE");
  EXPECT_EQ(s.to_string(), "fp32,bf16,bf16,fp16");  // normalized lowercase
  unsetenv("HPGMX_TEST_SCHEDULE");
}

TEST(PrecisionSchedule, EnvParsingNamesTheAcceptedTokens) {
  setenv("HPGMX_TEST_SCHEDULE", "fp32,notaformat", /*overwrite=*/1);
  try {
    (void)schedule_from_env("HPGMX_TEST_SCHEDULE");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fp64|fp32|bf16|fp16"), std::string::npos) << what;
    EXPECT_NE(what.find("notaformat"), std::string::npos) << what;
  }
  unsetenv("HPGMX_TEST_SCHEDULE");
}

TEST(PrecisionSchedule, PrecisionEnvErrorNamesTheAcceptedTokens) {
  setenv("HPGMX_TEST_PRECISION", "fp31", /*overwrite=*/1);
  try {
    (void)precision_from_env("HPGMX_TEST_PRECISION", Precision::Fp32);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fp64|fp32|bf16|fp16"),
              std::string::npos)
        << e.what();
  }
  unsetenv("HPGMX_TEST_PRECISION");
}

TEST(PrecisionSchedule, BenchParamsKeepInnerPrecisionInSync) {
  BenchParams p;
  p.set_precision_schedule(*parse_precision_schedule("bf16,fp16"));
  EXPECT_EQ(p.inner_precision, Precision::Bf16);
  p.set_precision_schedule({});  // empty schedule leaves the format alone
  EXPECT_EQ(p.inner_precision, Precision::Bf16);
}

TEST(PrecisionSchedule, PrecisionOfMapsTypesBack) {
  EXPECT_EQ(precision_of_v<double>, Precision::Fp64);
  EXPECT_EQ(precision_of_v<float>, Precision::Fp32);
  EXPECT_EQ(precision_of_v<bf16_t>, Precision::Bf16);
  EXPECT_EQ(precision_of_v<fp16_t>, Precision::Fp16);
  EXPECT_EQ(precision_bytes(Precision::Fp64), 8u);
  EXPECT_EQ(precision_bytes(Precision::Fp32), 4u);
  EXPECT_EQ(precision_bytes(Precision::Bf16), 2u);
  EXPECT_EQ(precision_bytes(Precision::Fp16), 2u);
}

// ---------------------------------------------------------------------------
// Scheduled V-cycle inside GMRES-IR

ProblemHierarchy make_hierarchy(local_index_t n, const BenchParams& params) {
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = n;
  pp.gamma = params.gamma;
  return build_hierarchy(generate_problem(ProcessGrid(1, 1, 1), 0, pp),
                         params.mg_levels, params.coloring_seed);
}

/// Multiply the whole system (A, b) by `s` on every level: the solution is
/// unchanged (still the ones vector) but the matrix entries leave fp16's
/// finite range when s is large.
void scale_system(ProblemHierarchy& h, double s) {
  for (Problem& lvl : h.levels) {
    for (double& v : lvl.a.values) {
      v *= s;
    }
    for (double& v : lvl.a.diag) {
      v *= s;
    }
    for (double& v : lvl.b) {
      v *= s;
    }
  }
}

template <typename TLow>
SolveResult solve_scheduled(const ProblemHierarchy& h, const BenchParams& params,
                            const PrecisionSchedule& schedule,
                            std::span<double> x, int max_iters = 3000) {
  SelfComm comm;
  SolverOptions opts;
  opts.max_iters = max_iters;
  opts.tol = 1e-9;
  opts.track_history = true;
  const std::vector<double> lvl_max = hierarchy_level_max_abs(h);
  ScaleGuard guard;
  guard.initialize(
      guard_reference_max_abs(
          std::span<const double>(lvl_max.data(), lvl_max.size()), schedule),
      PrecisionTraits<TLow>::max_finite);
  Multigrid<TLow> mg(h, params, /*tag_base=*/100, guard.scale(), schedule,
                     std::span<const double>(lvl_max.data(), lvl_max.size()));
  DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                           /*tag=*/90);
  GmresIr<TLow> solver(&a_d, &mg.level_op(0), &mg, opts);
  solver.set_scale_guard(&guard);
  return solver.solve(
      comm,
      std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()), x);
}

TEST(ScheduledMultigrid, UniformScheduleReproducesTheSingleFormatPath) {
  // The degenerate schedule (every level fp32) must be bit-identical to the
  // empty-schedule (legacy single-template) construction: same kernels, same
  // scales, same arithmetic — so identical iteration counts and history.
  BenchParams params;
  params.mg_levels = 3;
  const ProblemHierarchy h = make_hierarchy(16, params);
  AlignedVector<double> x_legacy(h.levels[0].b.size(), 0.0);
  AlignedVector<double> x_uniform(h.levels[0].b.size(), 0.0);
  const SolveResult legacy = solve_scheduled<float>(
      h, params, PrecisionSchedule{}, {x_legacy.data(), x_legacy.size()});
  const SolveResult uniform = solve_scheduled<float>(
      h, params, *parse_precision_schedule("fp32,fp32,fp32"),
      {x_uniform.data(), x_uniform.size()});
  ASSERT_TRUE(legacy.converged());
  ASSERT_TRUE(uniform.converged());
  EXPECT_EQ(legacy.iterations, uniform.iterations);
  ASSERT_EQ(legacy.history.size(), uniform.history.size());
  for (std::size_t i = 0; i < legacy.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy.history[i], uniform.history[i]);
  }
  for (std::size_t i = 0; i < x_legacy.size(); ++i) {
    ASSERT_EQ(x_legacy[i], x_uniform[i]);
  }
}

TEST(ScheduledMultigrid, MixedBf16CoarseMatchesUniformFp32WithinTolerance) {
  // Two-level V-cycle with a bf16 coarse level: the coarse grid carries a
  // fraction of the work and (per Carson's balancing argument) a fraction
  // of the error, so the outer convergence must stay close to uniform fp32.
  BenchParams params;
  params.mg_levels = 2;
  const ProblemHierarchy h = make_hierarchy(16, params);
  AlignedVector<double> x_f32(h.levels[0].b.size(), 0.0);
  AlignedVector<double> x_mixed(h.levels[0].b.size(), 0.0);
  const SolveResult f32 = solve_scheduled<float>(
      h, params, PrecisionSchedule{}, {x_f32.data(), x_f32.size()});
  const SolveResult mixed = solve_scheduled<float>(
      h, params, *parse_precision_schedule("fp32,bf16"),
      {x_mixed.data(), x_mixed.size()});
  ASSERT_TRUE(f32.converged());
  ASSERT_TRUE(mixed.converged());
  EXPECT_LT(mixed.relative_residual, 1e-9);
  // Residual histories track each other: no more than 50% extra outer
  // refinement steps, and the final accuracy is the same 1e-9 target.
  EXPECT_LE(mixed.history.size(),
            (f32.history.size() * 3 + 1) / 2 + 1);
  for (const double v : x_mixed) {
    ASSERT_NEAR(v, 1.0, 1e-5);  // exact solution is the ones vector
  }
}

TEST(ScheduledMultigrid, Fp16CoarseLevelsGuardedOnBadlyScaledSystem) {
  // Matrix entries ~2.6e10 overflow fp16 (max finite 65504). The per-level
  // equilibration demotes the fp16 coarse levels at their own power-of-two
  // scale, while the fp32 fine level needs none — the schedule must
  // converge to the 1e-9 double target where uniform unguarded fp16 dies.
  BenchParams params;
  ProblemHierarchy h = make_hierarchy(16, params);
  scale_system(h, 1.0e9);
  AlignedVector<double> x(h.levels[0].b.size(), 0.0);
  const SolveResult res = solve_scheduled<float>(
      h, params, *parse_precision_schedule("fp32,fp16"),
      {x.data(), x.size()});
  ASSERT_TRUE(res.converged());
  EXPECT_LT(res.relative_residual, 1e-9);
  for (const double v : x) {
    ASSERT_NEAR(v, 1.0, 1e-5);
  }
}

TEST(ScheduledMultigrid, LevelPrecisionAndScalesAreReported) {
  BenchParams params;
  ProblemHierarchy h = make_hierarchy(16, params);
  scale_system(h, 1.0e9);
  const std::vector<double> lvl_max = hierarchy_level_max_abs(h);
  const auto schedule = *parse_precision_schedule("fp32,fp16,fp16");
  Multigrid<float> mg(h, params, /*tag_base=*/100, /*value_scale=*/1.0,
                      schedule,
                      std::span<const double>(lvl_max.data(), lvl_max.size()));
  ASSERT_GE(mg.num_levels(), 2);
  EXPECT_EQ(mg.level_precision(0), Precision::Fp32);
  EXPECT_EQ(mg.level_precision(1), Precision::Fp16);
  // The fine level demotes at exactly value_scale (α_0 normalized to 1);
  // the fp16 levels carry a power-of-two equilibration shrinking 2.6e10
  // into range.
  EXPECT_DOUBLE_EQ(mg.level_scale(0), 1.0);
  EXPECT_LT(mg.level_scale(1), 1.0);
  const double log2_scale = std::log2(mg.level_scale(1));
  EXPECT_DOUBLE_EQ(log2_scale, std::floor(log2_scale));  // power of two
  EXPECT_LE(lvl_max[1] * mg.level_scale(1),
            PrecisionTraits<fp16_t>::max_finite);
  // level_op typed at a non-matching level throws instead of mis-casting.
  EXPECT_NO_THROW((void)mg.level_op(0));
  EXPECT_THROW((void)mg.level_op(1), Error);
}

TEST(ScheduledMultigrid, GuardAndLevelScalesComposeToOneEquilibrationEach) {
  // A hierarchy whose *coarse* maxima dominate: if the ScaleGuard were
  // still initialized from the hierarchy-wide maximum AND the coarse level
  // carried its own equilibration, the two would compose to α² and crush
  // the coarse operator into fp16's subnormal range. With the guard
  // anchored at the fine level (guard_reference_max_abs), every level's
  // composed demotion scale lands its max|A| once, near the O(1) target.
  BenchParams params;
  params.mg_levels = 2;
  ProblemHierarchy h = make_hierarchy(16, params);
  for (std::size_t l = 1; l < h.levels.size(); ++l) {
    for (double& v : h.levels[l].a.values) {
      v *= 1.0e9;
    }
    for (double& v : h.levels[l].a.diag) {
      v *= 1.0e9;
    }
  }
  const std::vector<double> lvl_max = hierarchy_level_max_abs(h);
  ASSERT_GT(lvl_max[1], 1e9);  // coarse dominates
  const auto schedule = *parse_precision_schedule("fp16,fp16");
  ScaleGuard guard;
  guard.initialize(
      guard_reference_max_abs(
          std::span<const double>(lvl_max.data(), lvl_max.size()), schedule),
      PrecisionTraits<fp16_t>::max_finite);
  // Fine max |a_ij| = 26 fits fp16 directly: the guard stays at 1.
  EXPECT_DOUBLE_EQ(guard.scale(), 1.0);
  Multigrid<fp16_t> mg(h, params, /*tag_base=*/100, guard.scale(), schedule,
                       std::span<const double>(lvl_max.data(),
                                               lvl_max.size()));
  for (int l = 0; l < mg.num_levels(); ++l) {
    const double stored_max =
        lvl_max[static_cast<std::size_t>(l)] * guard.scale() *
        mg.level_scale(l);
    EXPECT_LE(stored_max, PrecisionTraits<fp16_t>::max_finite);
    // Never double-scaled into the subnormal drain (fp16 min normal 2^-14).
    EXPECT_GT(stored_max, 0.25);
  }
  // The dominated coarse level was equilibrated toward the O(1) target.
  EXPECT_LE(lvl_max[1] * guard.scale() * mg.level_scale(1), 1.0);
}

TEST(ScheduledMultigrid, EntryFormatMustMatchTheInstantiation) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  EXPECT_THROW(Multigrid<float>(h, params, /*tag_base=*/100,
                                /*value_scale=*/1.0,
                                *parse_precision_schedule("bf16,bf16")),
               Error);
}

// ---------------------------------------------------------------------------
// Per-level bytes model

TEST(ScheduleBytesModel, UniformVcycleMatchesPerMotifFormulas) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  const std::vector<MgLevelDims> dims = hierarchy_level_dims(h);
  const std::vector<std::size_t> widths =
      schedule_value_bytes({}, static_cast<int>(dims.size()), Precision::Fp32);
  double expected = 0.0;
  for (std::size_t l = 0; l < dims.size(); ++l) {
    const bool coarsest = (l + 1 == dims.size());
    // Multigrid smooths once before restriction and once after
    // prolongation, and once on the coarsest level.
    const int sweeps = coarsest ? 1 : 2;
    expected += sweeps * gs_sweep_bytes<float>(dims[l].nnz, dims[l].rows);
    if (!coarsest) {
      expected += fused_restrict_bytes<float>(dims[l].nnz_coarse_rows,
                                              dims[l].rows,
                                              dims[l].coarse_rows);
      expected += prolong_bytes(dims[l].coarse_rows, sizeof(float),
                                sizeof(float));
    }
  }
  const double modeled = mg_vcycle_bytes(
      std::span<const MgLevelDims>(dims.data(), dims.size()),
      std::span<const std::size_t>(widths.data(), widths.size()));
  EXPECT_DOUBLE_EQ(modeled, expected);
}

TEST(ScheduleBytesModel, ProgressiveScheduleStreamsStrictlyFewerBytes) {
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  const std::vector<MgLevelDims> dims = hierarchy_level_dims(h);
  const int nl = static_cast<int>(dims.size());
  ASSERT_GE(nl, 2);
  const auto bytes_for = [&](const PrecisionSchedule& s) {
    const std::vector<std::size_t> widths =
        schedule_value_bytes(s, nl, Precision::Fp32);
    return mg_vcycle_bytes(
        std::span<const MgLevelDims>(dims.data(), dims.size()),
        std::span<const std::size_t>(widths.data(), widths.size()));
  };
  const double uniform_fp32 = bytes_for(*parse_precision_schedule("fp32"));
  const double progressive =
      bytes_for(*parse_precision_schedule("fp32,bf16,bf16"));
  const double uniform_bf16 = bytes_for(*parse_precision_schedule("bf16"));
  EXPECT_LT(progressive, uniform_fp32);
  EXPECT_LT(uniform_bf16, progressive);
}

}  // namespace
}  // namespace hpgmx
