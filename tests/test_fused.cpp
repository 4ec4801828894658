// Fused-pass and staged-16-bit-kernel tests.
//
// The fused solver kernels (spmv_dot, waxpby_norm, residual_norm2) promise
// more than numerical closeness: their reductions are ordered per-block
// partial sums, so the fused pass must equal the two-pass sequence (kernel,
// then blocked dot in a second sweep) *bit for bit*, for every storage
// format and both operator paths.
//
// The 16-bit ELL row-list SpMV / colored-GS kernels (fp32-widened tiles)
// are checked against the same-format CSR kernels, the scalar
// promote-through-float references that sum each row in the same order
// (agreement up to FMA-contraction-level differences).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blas/multivector.hpp"
#include "comm/comm.hpp"
#include "core/dist_operator.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "grid/problem.hpp"
#include "precision/float16.hpp"
#include "sparse/gauss_seidel.hpp"
#include "sparse/kernels.hpp"

namespace hpgmx {
namespace {

ProblemHierarchy make_hierarchy(local_index_t n, const BenchParams& params) {
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = n;
  pp.gamma = params.gamma;
  return build_hierarchy(generate_problem(ProcessGrid(1, 1, 1), 0, pp),
                         params.mg_levels, params.coloring_seed);
}

/// Deterministic, well-scaled fill pattern representable in every format.
template <typename T>
void fill_pattern(std::span<T> v, float shift = 0.0f) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float f =
        0.5f + 0.03125f * static_cast<float>(i % 37) - 0.25f + shift;
    v[i] = static_cast<T>(f);
  }
}

template <typename T>
void expect_bitwise_equal(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)));
}

// ---------------------------------------------------------------------------
// Kernel-level fused == unfused, all formats x both operator paths

template <typename T>
class FusedKernels : public ::testing::Test {};

using AllFormats = ::testing::Types<double, float, bf16_t, fp16_t>;
TYPED_TEST_SUITE(FusedKernels, AllFormats);

TYPED_TEST(FusedKernels, SpmvDotBitIdenticalToUnfused) {
  using T = TypeParam;
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  for (const OptLevel opt : {OptLevel::Reference, OptLevel::Optimized}) {
    DistOperator<T> op(h.levels[0].a, h.structures[0].get(), opt, /*tag=*/10);
    AlignedVector<T> x1(static_cast<std::size_t>(op.vec_len()), T(0));
    fill_pattern(std::span<T>(x1.data(), x1.size()));
    AlignedVector<T> x2 = x1;
    AlignedVector<T> y1(static_cast<std::size_t>(op.num_owned()), T(0));
    AlignedVector<T> y2 = y1;
    const double fused =
        op.spmv_dot(comm, std::span<T>(x1.data(), x1.size()),
                    std::span<T>(y1.data(), y1.size()));
    // Two-pass reference: the product, then the blocked dot with the
    // kernel's partial ordering (row blocks on the reference path,
    // interior-list then boundary-list blocks on the optimized path).
    op.spmv(comm, std::span<T>(x2.data(), x2.size()),
            std::span<T>(y2.data(), y2.size()));
    const std::span<const T> xc(x2.data(), y2.size());  // owned rows
    const std::span<const T> yc(y2.data(), y2.size());
    const double unfused =
        opt == OptLevel::Reference
            ? dot_span_blocked(yc, xc)
            : dot_rows_blocked(yc, xc, op.structure().interior_rows) +
                  dot_rows_blocked(yc, xc, op.structure().boundary_rows);
    EXPECT_EQ(fused, unfused) << "opt=" << opt_level_name(opt);
    expect_bitwise_equal(std::span<const T>(y1.data(), y1.size()),
                         std::span<const T>(y2.data(), y2.size()));
    EXPECT_TRUE(std::isfinite(fused));
    EXPECT_NE(fused, 0.0);
  }
}

TYPED_TEST(FusedKernels, ResidualNormBitIdenticalToUnfused) {
  using T = TypeParam;
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  SelfComm comm;
  for (const OptLevel opt : {OptLevel::Reference, OptLevel::Optimized}) {
    DistOperator<T> op(h.levels[0].a, h.structures[0].get(), opt, /*tag=*/20);
    AlignedVector<T> x1(static_cast<std::size_t>(op.vec_len()), T(0));
    fill_pattern(std::span<T>(x1.data(), x1.size()));
    AlignedVector<T> x2 = x1;
    AlignedVector<T> b(static_cast<std::size_t>(op.num_owned()), T(0));
    fill_pattern(std::span<T>(b.data(), b.size()), 0.125f);
    AlignedVector<T> r1(static_cast<std::size_t>(op.num_owned()), T(0));
    AlignedVector<T> r2 = r1;
    const double fused = op.residual_norm2(
        comm, std::span<const T>(b.data(), b.size()),
        std::span<T>(x1.data(), x1.size()), std::span<T>(r1.data(), r1.size()));
    op.residual(comm, std::span<const T>(b.data(), b.size()),
                std::span<T>(x2.data(), x2.size()),
                std::span<T>(r2.data(), r2.size()));
    const double unfused =
        dot_span_blocked(std::span<const T>(r2.data(), r2.size()),
                         std::span<const T>(r2.data(), r2.size()));
    EXPECT_EQ(fused, unfused) << "opt=" << opt_level_name(opt);
    expect_bitwise_equal(std::span<const T>(r1.data(), r1.size()),
                         std::span<const T>(r2.data(), r2.size()));
    EXPECT_GE(fused, 0.0);
  }
}

TYPED_TEST(FusedKernels, WaxpbyNormBitIdenticalToUnfused) {
  using T = TypeParam;
  const std::size_t n = 5000;  // several partial blocks plus a ragged tail
  AlignedVector<T> x(n, T(0)), y(n, T(0)), w1(n, T(0)), w2(n, T(0));
  fill_pattern(std::span<T>(x.data(), n));
  fill_pattern(std::span<T>(y.data(), n), 0.0625f);
  const double fused =
      waxpby_norm(1.75, std::span<const T>(x.data(), n), -0.5,
                  std::span<const T>(y.data(), n), std::span<T>(w1.data(), n));
  waxpby(1.75, std::span<const T>(x.data(), n), -0.5,
         std::span<const T>(y.data(), n), std::span<T>(w2.data(), n));
  const double unfused = dot_span_blocked(std::span<const T>(w2.data(), n),
                                          std::span<const T>(w2.data(), n));
  EXPECT_EQ(fused, unfused);
  expect_bitwise_equal(std::span<const T>(w1.data(), n),
                       std::span<const T>(w2.data(), n));
}

TYPED_TEST(FusedKernels, WaxpbyNormAllowsInPlaceUpdate) {
  using T = TypeParam;
  const std::size_t n = 3000;
  AlignedVector<T> r1(n, T(0)), ap(n, T(0));
  fill_pattern(std::span<T>(r1.data(), n));
  fill_pattern(std::span<T>(ap.data(), n), 0.25f);
  AlignedVector<T> r2 = r1;
  // In-place r ← r − alpha·Ap (w aliases x), CG's fused residual update.
  const double fused = waxpby_norm(1.0, std::span<const T>(r1.data(), n),
                                   -0.25, std::span<const T>(ap.data(), n),
                                   std::span<T>(r1.data(), n));
  waxpby(1.0, std::span<const T>(r2.data(), n), -0.25,
         std::span<const T>(ap.data(), n), std::span<T>(r2.data(), n));
  const double unfused = dot_span_blocked(std::span<const T>(r2.data(), n),
                                          std::span<const T>(r2.data(), n));
  EXPECT_EQ(fused, unfused);
  expect_bitwise_equal(std::span<const T>(r1.data(), n),
                       std::span<const T>(r2.data(), n));
}

// ---------------------------------------------------------------------------
// 16-bit ELL kernels vs the scalar promote-through-float CSR kernels

template <typename T>
class Staged16 : public ::testing::Test {};

using SixteenBit = ::testing::Types<bf16_t, fp16_t>;
TYPED_TEST_SUITE(Staged16, SixteenBit);

TYPED_TEST(Staged16, EllSpmvMatchesScalarPath) {
  using T = TypeParam;
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  const CsrMatrix<T> a = h.levels[0].a.convert<T>();
  const EllMatrix<T> e = ell_from_csr(a);
  AlignedVector<T> x(static_cast<std::size_t>(e.num_cols), T(0));
  fill_pattern(std::span<T>(x.data(), x.size()));
  AlignedVector<local_index_t> all_rows(static_cast<std::size_t>(e.num_rows));
  std::iota(all_rows.begin(), all_rows.end(), local_index_t{0});
  AlignedVector<T> y_staged(static_cast<std::size_t>(e.num_rows), T(0));
  AlignedVector<T> y_scalar(static_cast<std::size_t>(e.num_rows), T(0));
  ell_spmv_rows(e, std::span<const T>(x.data(), x.size()),
                std::span<T>(y_staged.data(), y_staged.size()),
                std::span<const local_index_t>(all_rows.data(),
                                               all_rows.size()));
  csr_spmv(a, std::span<const T>(x.data(), x.size()),
           std::span<T>(y_scalar.data(), y_scalar.size()));
  // Same accumulation order in fp32; only FMA-contraction details may
  // differ before the final 16-bit rounding, so allow one output ulp.
  const float ulp = static_cast<float>(PrecisionTraits<T>::unit_roundoff) * 2;
  for (std::size_t i = 0; i < y_staged.size(); ++i) {
    const float s = static_cast<float>(y_staged[i]);
    const float c = static_cast<float>(y_scalar[i]);
    ASSERT_NEAR(s, c, std::max(std::abs(c), 1.0f) * 2 * ulp) << "row " << i;
  }
}

TYPED_TEST(Staged16, ColoredGsMatchesScalarPath) {
  using T = TypeParam;
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  const CsrMatrix<T> a = h.levels[0].a.convert<T>();
  const EllMatrix<T> e = ell_from_csr(a);
  const OperatorStructure& st = *h.structures[0];
  AlignedVector<T> r(static_cast<std::size_t>(e.num_rows), T(0));
  fill_pattern(std::span<T>(r.data(), r.size()));
  AlignedVector<T> z_staged(static_cast<std::size_t>(e.num_cols), T(0));
  AlignedVector<T> z_scalar(static_cast<std::size_t>(e.num_cols), T(0));
  gs_sweep_colored_ell(e, st.colors, std::span<const T>(r.data(), r.size()),
                       std::span<T>(z_staged.data(), z_staged.size()));
  gs_sweep_colored(a, st.colors, std::span<const T>(r.data(), r.size()),
                   std::span<T>(z_scalar.data(), z_scalar.size()));
  const float ulp = static_cast<float>(PrecisionTraits<T>::unit_roundoff) * 2;
  for (std::size_t i = 0; i < z_staged.size(); ++i) {
    const float s = static_cast<float>(z_staged[i]);
    const float c = static_cast<float>(z_scalar[i]);
    // GS feeds rounded updates forward color by color, so contraction
    // differences can compound a little across colors.
    ASSERT_NEAR(s, c, std::max(std::abs(c), 1.0f) * 8 * ulp) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// The blocked reductions themselves are thread-count independent

TEST(BlockedReduction, MatchesSerialBlockedSum) {
  const std::size_t n = 10000;
  AlignedVector<float> x(n, 0.0f), y(n, 0.0f);
  fill_pattern(std::span<float>(x.data(), n));
  fill_pattern(std::span<float>(y.data(), n), 0.5f);
  // Serial re-computation of the same ordered per-block partials.
  double expected = 0.0;
  for (std::size_t b0 = 0; b0 < n; b0 += detail::kReduceBlock) {
    double p = 0.0;
    const std::size_t b1 = std::min(n, b0 + detail::kReduceBlock);
    for (std::size_t i = b0; i < b1; ++i) {
      p = std::fma(static_cast<double>(x[i]), static_cast<double>(y[i]), p);
    }
    expected += p;
  }
  EXPECT_EQ(expected, dot_span_blocked(std::span<const float>(x.data(), n),
                                       std::span<const float>(y.data(), n)));
}

/// Everything a thread-count change could perturb: the two non-fused local
/// reductions in both accumulation types, and a whole fp32 GMRES-IR solve.
struct ReductionSnapshot {
  float dot_f32 = 0.0f;
  double dot_f64 = 0.0;
  std::vector<float> h_f32;
  std::vector<double> h_f64;
  int iterations = 0;
  std::vector<double> history;
  std::vector<double> x;
};

ReductionSnapshot reduce_everything(const ProblemHierarchy& h) {
  ReductionSnapshot snap;
  SelfComm comm;
  // Several kReduceBlock blocks per thread at 4 threads, plus a ragged tail.
  const std::size_t n = 9 * detail::kReduceBlock + 123;
  AlignedVector<float> xf(n), yf(n);
  AlignedVector<double> xd(n), yd(n);
  for (std::size_t i = 0; i < n; ++i) {
    xf[i] = std::sin(0.37f * static_cast<float>(i)) + 1.0e-3f;
    yf[i] = std::cos(0.11f * static_cast<float>(i)) * 0.3f;
    xd[i] = static_cast<double>(xf[i]) / 3.0;
    yd[i] = static_cast<double>(yf[i]) * 7.0;
  }
  snap.dot_f32 = dot_local(std::span<const float>(xf.data(), n),
                           std::span<const float>(yf.data(), n));
  snap.dot_f64 = dot_local(std::span<const double>(xd.data(), n),
                           std::span<const double>(yd.data(), n));

  constexpr int kCols = 6;
  MultiVector<float> qf(static_cast<local_index_t>(n), kCols);
  MultiVector<double> qd(static_cast<local_index_t>(n), kCols);
  for (int j = 0; j < kCols; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      qf.column(j)[i] = xf[(i + 97 * static_cast<std::size_t>(j)) % n];
      qd.column(j)[i] = xd[(i + 97 * static_cast<std::size_t>(j)) % n];
    }
  }
  snap.h_f32.assign(kCols, 0.0f);
  snap.h_f64.assign(kCols, 0.0);
  gemv_t(comm, qf, kCols, std::span<const float>(yf.data(), n),
         std::span<float>(snap.h_f32.data(), kCols));
  gemv_t(comm, qd, kCols, std::span<const double>(yd.data(), n),
         std::span<double>(snap.h_f64.data(), kCols));

  BenchParams params;
  SolverOptions opts;
  opts.max_iters = 500;
  opts.tol = 1e-9;
  opts.track_history = true;
  Multigrid<float> mg(h, params);
  DistOperator<double> a_d(h.levels[0].a, h.structures[0].get(), params.opt,
                           /*tag=*/90);
  GmresIr<float> solver(&a_d, &mg.level_op(0), &mg, opts);
  snap.x.assign(h.levels[0].b.size(), 0.0);
  const SolveResult res = solver.solve(
      comm,
      std::span<const double>(h.levels[0].b.data(), h.levels[0].b.size()),
      std::span<double>(snap.x.data(), snap.x.size()));
  EXPECT_TRUE(res.converged());
  snap.iterations = res.iterations;
  snap.history = res.history;
  return snap;
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  expect_bitwise_equal(std::span<const T>(a.data(), a.size()),
                       std::span<const T>(b.data(), b.size()));
}

TEST(BlockedReduction, ResultsAreIndependentOfTheThreadCount) {
#ifdef _OPENMP
  const std::vector<int> thread_counts{1, 2, 4};
  const int saved_threads = omp_get_max_threads();
#else
  const std::vector<int> thread_counts{1};  // serial build: one setting
#endif
  BenchParams params;
  const ProblemHierarchy h = make_hierarchy(16, params);
  std::vector<ReductionSnapshot> snaps;
  for (const int threads : thread_counts) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    (void)threads;
    snaps.push_back(reduce_everything(h));
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
  const ReductionSnapshot& ref = snaps.front();
  for (std::size_t t = 1; t < snaps.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "threads=" << thread_counts[t]);
    const ReductionSnapshot& s = snaps[t];
    EXPECT_EQ(0, std::memcmp(&s.dot_f32, &ref.dot_f32, sizeof(float)));
    EXPECT_EQ(0, std::memcmp(&s.dot_f64, &ref.dot_f64, sizeof(double)));
    expect_bitwise_equal(s.h_f32, ref.h_f32);
    expect_bitwise_equal(s.h_f64, ref.h_f64);
    EXPECT_EQ(s.iterations, ref.iterations);
    expect_bitwise_equal(s.history, ref.history);
    expect_bitwise_equal(s.x, ref.x);
  }
}

}  // namespace
}  // namespace hpgmx
