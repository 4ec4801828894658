// Tests for src/sparse: CSR/ELL formats, SpMV equivalence, residual/fused
// restriction kernels, row partitions, level scheduling.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "grid/problem.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/kernels.hpp"
#include "sparse/row_partition.hpp"
#include "sparse/sptrsv.hpp"

namespace hpgmx {
namespace {

/// Tiny dense-backed fixture: a 4x4 tridiagonal-ish matrix.
CsrMatrix<double> small_matrix() {
  CsrBuilder<double> b(4, 4, 4);
  // row 0: [4, -1, 0, 0]
  b.push(0, 4.0);
  b.push(1, -1.0);
  b.finish_row();
  // row 1: [-1, 4, -1, 0]
  b.push(0, -1.0);
  b.push(1, 4.0);
  b.push(2, -1.0);
  b.finish_row();
  // row 2: [0, -1, 4, -1]
  b.push(1, -1.0);
  b.push(2, 4.0);
  b.push(3, -1.0);
  b.finish_row();
  // row 3: [0, 0, -1, 4]
  b.push(2, -1.0);
  b.push(3, 4.0);
  b.finish_row();
  return b.build();
}

TEST(CsrMatrix, BuilderAndAccessors) {
  const CsrMatrix<double> a = small_matrix();
  EXPECT_EQ(a.num_rows, 4);
  EXPECT_EQ(a.nnz(), 10);
  EXPECT_EQ(a.row_cols(1).size(), 3u);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[1], 4.0);
  for (local_index_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(a.diag[static_cast<std::size_t>(r)], 4.0);
  }
}

TEST(CsrMatrix, MissingDiagonalThrows) {
  CsrBuilder<double> b(2, 2, 2);
  b.push(1, 1.0);
  b.finish_row();
  b.push(1, 1.0);
  b.finish_row();
  EXPECT_THROW(b.build(), Error);
}

TEST(CsrMatrix, ConvertRoundTripsValues) {
  const CsrMatrix<double> a = small_matrix();
  const CsrMatrix<float> f = a.convert<float>();
  EXPECT_EQ(f.nnz(), a.nnz());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_FLOAT_EQ(f.values[i], static_cast<float>(a.values[i]));
  }
  EXPECT_EQ(f.diag.size(), a.diag.size());
}

TEST(EllMatrix, FromCsrPreservesEntries) {
  const CsrMatrix<double> a = small_matrix();
  const EllMatrix<double> e = ell_from_csr(a);
  EXPECT_EQ(e.slots, 3);  // widest row has 3 entries
  EXPECT_EQ(e.padded_nnz(), 12);
  // Padding entries must be zero-valued self references.
  for (local_index_t r = 0; r < e.num_rows; ++r) {
    const auto width = a.row_ptr[r + 1] - a.row_ptr[r];
    for (local_index_t s = static_cast<local_index_t>(width); s < e.slots;
         ++s) {
      EXPECT_EQ(e.col_idx[e.slot_index(r, s)], r);
      EXPECT_DOUBLE_EQ(e.values[e.slot_index(r, s)], 0.0);
    }
  }
}

TEST(Spmv, CsrMatchesDenseOracle) {
  const CsrMatrix<double> a = small_matrix();
  const AlignedVector<double> x{1.0, 2.0, 3.0, 4.0};
  AlignedVector<double> y(4, 0.0);
  csr_spmv(a, std::span<const double>(x.data(), x.size()),
           std::span<double>(y.data(), y.size()));
  EXPECT_DOUBLE_EQ(y[0], 4.0 * 1 - 2);
  EXPECT_DOUBLE_EQ(y[1], -1 + 8.0 - 3);
  EXPECT_DOUBLE_EQ(y[2], -2 + 12.0 - 4);
  EXPECT_DOUBLE_EQ(y[3], -3 + 16.0);
}

/// ELL SpMV over all rows must reproduce CSR SpMV on `a` for a random x.
void expect_ell_equals_csr(const CsrMatrix<double>& a) {
  const EllMatrix<double> e = ell_from_csr(a);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1, 1);
  AlignedVector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) {
    v = dist(rng);
  }
  AlignedVector<double> y_csr(static_cast<std::size_t>(a.num_rows), 0);
  AlignedVector<double> y_ell(static_cast<std::size_t>(a.num_rows), 0);
  csr_spmv(a, std::span<const double>(x.data(), x.size()),
           std::span<double>(y_csr.data(), y_csr.size()));
  AlignedVector<local_index_t> rows(static_cast<std::size_t>(a.num_rows));
  std::iota(rows.begin(), rows.end(), local_index_t{0});
  ell_spmv_rows(e, std::span<const double>(x.data(), x.size()),
                std::span<double>(y_ell.data(), y_ell.size()),
                std::span<const local_index_t>(rows.data(), rows.size()));
  for (std::size_t i = 0; i < y_csr.size(); ++i) {
    ASSERT_NEAR(y_csr[i], y_ell[i], 1e-12) << "row " << i;
  }
}

/// Two owned rows plus one entry addressing a remapped halo column 40000
/// columns from its row — wider than any 16-bit column window, the shape a
/// large local grid's first low-face halo reference takes.
TEST(Spmv, EllEqualsCsrWithFarHaloColumn) {
  constexpr local_index_t kFarCol = 40000;
  CsrBuilder<double> b(/*num_rows=*/2, /*num_cols=*/kFarCol + 1,
                       /*num_owned_cols=*/2);
  b.push(0, 4.0);
  b.push(kFarCol, -1.0);
  b.finish_row();
  b.push(1, 4.0);
  b.finish_row();
  expect_ell_equals_csr(b.build());
}

class SpmvGridSizes : public ::testing::TestWithParam<int> {};

TEST_P(SpmvGridSizes, EllEqualsCsrOnStencilMatrix) {
  const auto n = static_cast<local_index_t>(GetParam());
  ProblemParams p;
  p.nx = p.ny = p.nz = n;
  expect_ell_equals_csr(generate_problem(ProcessGrid(1, 1, 1), 0, p).a);
}

TEST_P(SpmvGridSizes, RowSubsetVariantsCoverAllRows) {
  const auto n = static_cast<local_index_t>(GetParam());
  ProblemParams p;
  p.nx = p.ny = p.nz = n;
  const Problem prob = generate_problem(ProcessGrid(1, 1, 1), 0, p);
  const EllMatrix<double> e = ell_from_csr(prob.a);
  AlignedVector<double> x(static_cast<std::size_t>(prob.a.num_cols), 1.0);
  AlignedVector<double> y_full(static_cast<std::size_t>(prob.a.num_rows), 0);
  AlignedVector<double> y_split(static_cast<std::size_t>(prob.a.num_rows), -1);

  csr_spmv(prob.a, std::span<const double>(x.data(), x.size()),
           std::span<double>(y_full.data(), y_full.size()));
  // Split rows arbitrarily into evens and odds.
  AlignedVector<local_index_t> evens, odds;
  for (local_index_t r = 0; r < prob.a.num_rows; ++r) {
    (r % 2 == 0 ? evens : odds).push_back(r);
  }
  ell_spmv_rows(e, std::span<const double>(x.data(), x.size()),
                std::span<double>(y_split.data(), y_split.size()),
                std::span<const local_index_t>(evens.data(), evens.size()));
  ell_spmv_rows(e, std::span<const double>(x.data(), x.size()),
                std::span<double>(y_split.data(), y_split.size()),
                std::span<const local_index_t>(odds.data(), odds.size()));
  for (std::size_t i = 0; i < y_full.size(); ++i) {
    ASSERT_NEAR(y_full[i], y_split[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, SpmvGridSizes, ::testing::Values(4, 6, 8));

TEST(Residual, ZeroWhenExact) {
  ProblemParams p;
  p.nx = p.ny = p.nz = 4;
  const Problem prob = generate_problem(ProcessGrid(1, 1, 1), 0, p);
  AlignedVector<double> ones(static_cast<std::size_t>(prob.a.num_cols), 1.0);
  AlignedVector<double> r(static_cast<std::size_t>(prob.a.num_rows), -1.0);
  csr_residual(prob.a, std::span<const double>(prob.b.data(), prob.b.size()),
               std::span<const double>(ones.data(), ones.size()),
               std::span<double>(r.data(), r.size()));
  for (const double v : r) {
    EXPECT_NEAR(v, 0.0, 1e-12);
  }
}

TEST(FusedRestrict, MatchesUnfusedPath) {
  ProblemParams p;
  p.nx = p.ny = p.nz = 8;
  const Problem fine = generate_problem(ProcessGrid(1, 1, 1), 0, p);
  const CoarseLevel cl = coarsen(fine);

  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(-1, 1);
  AlignedVector<double> b(static_cast<std::size_t>(fine.a.num_rows));
  AlignedVector<double> x(static_cast<std::size_t>(fine.a.num_cols));
  for (auto& v : b) {
    v = dist(rng);
  }
  for (auto& v : x) {
    v = dist(rng);
  }

  // Unfused oracle: full residual, then injection.
  AlignedVector<double> rf(static_cast<std::size_t>(fine.a.num_rows), 0);
  AlignedVector<double> rc_oracle(cl.c2f.size(), 0);
  csr_residual(fine.a, std::span<const double>(b.data(), b.size()),
               std::span<const double>(x.data(), x.size()),
               std::span<double>(rf.data(), rf.size()));
  inject_restrict(std::span<const local_index_t>(cl.c2f.data(), cl.c2f.size()),
                  std::span<const double>(rf.data(), rf.size()),
                  std::span<double>(rc_oracle.data(), rc_oracle.size()));

  AlignedVector<double> rc(cl.c2f.size(), 0);
  fused_restrict_residual(
      fine.a, std::span<const double>(b.data(), b.size()),
      std::span<const double>(x.data(), x.size()),
      std::span<const local_index_t>(cl.c2f.data(), cl.c2f.size()),
      std::span<double>(rc.data(), rc.size()));
  for (std::size_t i = 0; i < rc.size(); ++i) {
    ASSERT_NEAR(rc[i], rc_oracle[i], 1e-12);
  }
}

TEST(ProlongCorrect, AddsAtInjectionPoints) {
  AlignedVector<local_index_t> c2f{0, 2, 4};
  AlignedVector<double> zc{1.0, 2.0, 3.0};
  AlignedVector<double> x{10, 10, 10, 10, 10};
  prolong_correct(std::span<const local_index_t>(c2f.data(), c2f.size()),
                  std::span<const double>(zc.data(), zc.size()),
                  std::span<double>(x.data(), x.size()));
  EXPECT_DOUBLE_EQ(x[0], 11);
  EXPECT_DOUBLE_EQ(x[1], 10);
  EXPECT_DOUBLE_EQ(x[2], 12);
  EXPECT_DOUBLE_EQ(x[3], 10);
  EXPECT_DOUBLE_EQ(x[4], 13);
}

TEST(RowPartition, FromGroupIds) {
  const std::vector<int> groups{1, 0, 1, 2, 0};
  const RowPartition part = RowPartition::from_group_ids(groups, 3);
  EXPECT_EQ(part.num_groups(), 3);
  EXPECT_EQ(part.num_rows(), 5);
  const auto g0 = part.group(0);
  ASSERT_EQ(g0.size(), 2u);
  EXPECT_EQ(g0[0], 1);
  EXPECT_EQ(g0[1], 4);
  const auto g2 = part.group(2);
  ASSERT_EQ(g2.size(), 1u);
  EXPECT_EQ(g2[0], 3);
}

TEST(RowPartition, InvalidGroupIdThrows) {
  const std::vector<int> groups{0, 5};
  EXPECT_THROW(RowPartition::from_group_ids(groups, 2), Error);
}

TEST(LevelSchedule, TridiagonalIsFullySequential) {
  const CsrMatrix<double> a = small_matrix();
  const RowPartition levels = build_lower_level_schedule(a);
  // Chain dependencies: every row depends on the previous one.
  EXPECT_EQ(levels.num_groups(), 4);
  for (int l = 0; l < 4; ++l) {
    ASSERT_EQ(levels.group(l).size(), 1u);
    EXPECT_EQ(levels.group(l)[0], l);
  }
}

TEST(LevelSchedule, StencilHasManyMoreLevelsThanColors) {
  // The 27-pt stencil's lower triangle chains through diagonal neighbors,
  // so level counts far exceed the 8 independent-set colors — the limited
  // parallelism of level scheduling that paper §3.1 criticizes.
  ProblemParams p;
  p.nx = p.ny = p.nz = 4;
  const Problem prob = generate_problem(ProcessGrid(1, 1, 1), 0, p);
  const RowPartition levels = build_lower_level_schedule(prob.a);
  EXPECT_GE(levels.num_groups(), 4 + 4 + 4 - 2);
  EXPECT_GT(levels.num_groups(), 8);      // worse than multicoloring
  EXPECT_EQ(levels.group(0).size(), 1u);  // only the (0,0,0) corner

  // Validity: every lower-triangle dependency sits in an earlier level.
  std::vector<int> level_of(static_cast<std::size_t>(prob.a.num_rows), -1);
  for (int l = 0; l < levels.num_groups(); ++l) {
    for (const local_index_t r : levels.group(l)) {
      level_of[static_cast<std::size_t>(r)] = l;
    }
  }
  for (local_index_t r = 0; r < prob.a.num_rows; ++r) {
    for (const local_index_t c : prob.a.row_cols(r)) {
      if (c < r) {
        EXPECT_LT(level_of[static_cast<std::size_t>(c)],
                  level_of[static_cast<std::size_t>(r)]);
      }
    }
  }
}

TEST(LevelSchedule, SolveMatchesSequentialSubstitution) {
  const CsrMatrix<double> a = small_matrix();
  const RowPartition levels = build_lower_level_schedule(a);
  const AlignedVector<double> t{4.0, 2.0, 0.0, 8.0};
  AlignedVector<double> z(4, 0.0);
  sptrsv_lower_levels(a, levels, std::span<const double>(t.data(), t.size()),
                      std::span<double>(z.data(), z.size()));
  // Forward substitution with (D+L).
  AlignedVector<double> z_ref(4, 0.0);
  z_ref[0] = 4.0 / 4.0;
  z_ref[1] = (2.0 + z_ref[0]) / 4.0;
  z_ref[2] = (0.0 + z_ref[1]) / 4.0;
  z_ref[3] = (8.0 + z_ref[2]) / 4.0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(z[static_cast<std::size_t>(i)],
                z_ref[static_cast<std::size_t>(i)], 1e-14);
  }
}

}  // namespace
}  // namespace hpgmx
