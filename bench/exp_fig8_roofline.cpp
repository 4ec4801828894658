// Fig. 8: roofline of the ten most expensive kernels on one MI250x GCD —
// the paper's point is that every kernel sits at the HBM bandwidth limit
// (memory-bound), with fp32 variants at the same bandwidth but twice the
// effective FLOP rate per byte of values.
//
// Reproduction: measure this host's STREAM roof, time each kernel in both
// precisions, compute (AI, GFLOP/s) from the FLOP/bytes models, and print
// the %-of-roof column that encodes the paper's claim.
#include <numeric>

#include "blas/multivector.hpp"
#include "coloring/coloring.hpp"
#include "core/bytes_model.hpp"
#include "core/multigrid.hpp"
#include "exhibit_common.hpp"
#include "perf/bandwidth.hpp"
#include "perf/roofline.hpp"
#include "sparse/gauss_seidel.hpp"

namespace {

using namespace hpgmx;

template <typename T, typename F>
KernelSample time_kernel(const char* name, double flops, double bytes,
                         int reps, F&& fn) {
  fn();  // warmup
  WallTimer t;
  for (int i = 0; i < reps; ++i) {
    fn();
  }
  return KernelSample{name, flops * reps, bytes * reps, t.seconds()};
}

template <typename T>
void add_kernels(std::vector<KernelSample>& out, const Problem& prob,
                 const CoarseLevel& coarse, int reps) {
  const CsrMatrix<T> a = prob.a.convert<T>();
  const EllMatrix<T> e = ell_from_csr(a);
  const auto colors = jpl_color(a, 42);
  const RowPartition part = color_partition(colors);
  const local_index_t n = a.num_rows;
  const std::int64_t nnz = a.nnz();
  const char* suffix = std::is_same_v<T, double> ? "fp64" : "fp32";

  AlignedVector<T> x(static_cast<std::size_t>(a.num_cols), T(1));
  AlignedVector<T> y(static_cast<std::size_t>(n), T(0));
  AlignedVector<T> b(static_cast<std::size_t>(n), T(1));
  AlignedVector<local_index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), local_index_t{0});  // every row

  out.push_back(time_kernel<T>(
      (std::string("GS-multicolor-") + suffix).c_str(),
      static_cast<double>(gs_sweep_flops(nnz, n)),
      gs_sweep_bytes(nnz, n, PrecisionTraits<T>::bytes), reps, [&] {
        gs_sweep_colored_ell(e, part, std::span<const T>(b.data(), b.size()),
                             std::span<T>(x.data(), x.size()));
      }));
  out.push_back(time_kernel<T>(
      (std::string("SpMV-ell-") + suffix).c_str(),
      static_cast<double>(spmv_flops(nnz)),
      spmv_bytes(nnz, n, PrecisionTraits<T>::bytes), reps, [&] {
        ell_spmv_rows(e, std::span<const T>(x.data(), x.size()),
                      std::span<T>(y.data(), y.size()),
                      std::span<const local_index_t>(rows.data(), rows.size()));
      }));

  // Fused SpMV-restriction (the two unlabelled kernels of Fig. 8).
  std::int64_t nnz_sel = 0;
  for (const local_index_t fr : coarse.c2f) {
    nnz_sel += prob.a.row_ptr[fr + 1] - prob.a.row_ptr[fr];
  }
  AlignedVector<T> rc(coarse.c2f.size(), T(0));
  out.push_back(time_kernel<T>(
      (std::string("FusedSpMV-restr-") + suffix).c_str(),
      static_cast<double>(fused_restrict_flops(
          nnz_sel, static_cast<local_index_t>(coarse.c2f.size()))),
      fused_restrict_bytes<T>(nnz_sel, n,
                              static_cast<local_index_t>(coarse.c2f.size())),
      reps, [&] {
        fused_restrict_residual(
            a, std::span<const T>(b.data(), b.size()),
            std::span<const T>(x.data(), x.size()),
            std::span<const local_index_t>(coarse.c2f.data(),
                                           coarse.c2f.size()),
            std::span<T>(rc.data(), rc.size()));
      }));

  // CGS2 GEMV pair at half restart depth.
  const int k = 15;
  MultiVector<T> q(n, k + 1);
  for (int j = 0; j <= k; ++j) {
    set_all(q.column(j), T(0.01) * static_cast<T>(j + 1));
  }
  SelfComm comm;
  AlignedVector<T> h(static_cast<std::size_t>(k) + 1, T(0));
  out.push_back(time_kernel<T>(
      (std::string("CGS2-gemv-") + suffix).c_str(),
      static_cast<double>(cgs2_flops(n, k)) / 2.0, cgs2_bytes<T>(n, k) / 2.0,
      reps, [&] {
        gemv_t(comm, q, k, std::span<const T>(y.data(), y.size()),
               std::span<T>(h.data(), h.size()));
        gemv_n_sub(q, k, std::span<const T>(h.data(), h.size()),
                   std::span<T>(y.data(), y.size()));
      }));
  out.push_back(time_kernel<T>(
      (std::string("WAXPBY-") + suffix).c_str(), 3.0 * n, waxpby_bytes<T>(n),
      reps, [&] {
        waxpby(T(1.5), std::span<const T>(b.data(), b.size()), T(0.5),
               std::span<const T>(y.data(),
                                  static_cast<std::size_t>(n)),
               std::span<T>(x.data(), static_cast<std::size_t>(n)));
      }));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpgmx::bench;
  const bool json = has_flag(argc, argv, "--json");
  // 64^3 keeps the harness quick; kernels may sit above a DRAM roof when
  // the working set fits in a large L3 — use HPGMX_NX=96+ for a strictly
  // DRAM-resident roofline.
  ExhibitConfig cfg = ExhibitConfig::from_env(/*n=*/64, /*ranks=*/1);
  if (!json) {
    banner("EXP fig8 roofline (paper Fig. 8)",
           "ten most expensive kernels sit on the HBM bandwidth roof of one "
           "MI250x GCD (1.6 TB/s)");
  }

  const BandwidthResult bw = measure_stream_bandwidth();

  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = cfg.params.nx;
  const Problem prob = generate_problem(ProcessGrid(1, 1, 1), 0, pp);
  const CoarseLevel coarse = coarsen(prob);
  const int reps = static_cast<int>(env_int_or("HPGMX_ROOFLINE_REPS", 5));

  std::vector<KernelSample> samples;
  add_kernels<double>(samples, prob, coarse, reps);
  add_kernels<float>(samples, prob, coarse, reps);

  if (json) {
    std::printf("{\n");
    std::printf("  \"exhibit\": \"fig8_roofline\",\n");
    std::printf("  \"local_grid\": [%d, %d, %d],\n", cfg.params.nx,
                cfg.params.ny, cfg.params.nz);
    std::printf("  \"stream_triad_gbs\": %.6g,\n", bw.triad_gbs);
    std::printf("  \"stream_copy_gbs\": %.6g,\n", bw.copy_gbs);
    std::printf("  \"kernels\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const KernelSample& s = samples[i];
      const double gbs = s.seconds > 0 ? s.bytes / s.seconds * 1e-9 : 0.0;
      const double gflops = s.seconds > 0 ? s.flops / s.seconds * 1e-9 : 0.0;
      std::printf("    {\"name\": \"%s\", \"ai_flops_per_byte\": %.6g, "
                  "\"gflops\": %.6g, \"gbs\": %.6g, \"pct_roof\": %.6g}%s\n",
                  s.name.c_str(), s.arithmetic_intensity(), gflops, gbs,
                  bw.triad_gbs > 0 ? 100.0 * gbs / bw.triad_gbs : 0.0,
                  i + 1 < samples.size() ? "," : "");
    }
    std::printf("  ]\n");
    std::printf("}\n");
    return 0;
  }

  std::printf("host STREAM roof: triad %.2f GB/s, copy %.2f GB/s\n\n",
              bw.triad_gbs, bw.copy_gbs);
  std::printf("%s\n",
              roofline_report(samples, bw.triad_gbs, /*peak=*/0.0).c_str());
  std::printf("paper Fig. 8: all kernels line up at the HBM bandwidth limit\n"
              "(~O(0.1) FLOP/byte, >=70%% of roof). Check the %%roof column:\n"
              "streaming kernels should sit high; gather-heavy GS/SpMV may\n"
              "fall lower on a scalar CPU (no coalesced gathers) — the AI\n"
              "column must still match the paper's bandwidth-bound regime.\n");
  return 0;
}
