// Fig. 6: the same mxp-over-double speedups on a commodity NVIDIA K80
// cluster, demonstrating that the gain is not Frontier-specific. The paper
// shows speedups of similar structure (somewhat noisier, small cluster).
//
// Reproduction: bandwidth-bound speedup per motif is the fp64/fp32 ratio of
// the *bytes each motif moves*; we compute that ratio from the bytes model
// (identical on any bandwidth-bound machine — the portability claim) and
// show it alongside this host's measured speedups from the same harness as
// Fig. 5.
//   $ ./exp_fig6_k80 [--json]
//
// --json emits one machine-readable report object on stdout (the BENCH_*
// perf-trajectory format) instead of the human tables.
#include "core/multigrid.hpp"
#include "exhibit_common.hpp"

int main(int argc, char** argv) {
  using namespace hpgmx;
  using namespace hpgmx::bench;
  const bool json = has_flag(argc, argv, "--json");
  ExhibitConfig cfg = ExhibitConfig::from_env(/*n=*/32, /*ranks=*/1,
                                              /*seconds=*/0.6);
  if (!json) {
    banner("EXP fig6 K80 portability (paper Fig. 6)",
           "similar speedups on a K80 cluster: the gain is bandwidth-driven, "
           "not architecture-specific");
  }

  // Bytes-model speedup bounds (machine-independent for bandwidth-bound
  // kernels): ratio of fp64 to fp32 traffic per motif.
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = cfg.params.nx;
  const Problem prob = generate_problem(ProcessGrid(1, 1, 1), 0, pp);
  const std::int64_t nnz = prob.a.nnz();
  const local_index_t n = prob.a.num_rows;
  const int k = cfg.params.restart_length / 2;  // mid-restart CGS2 depth

  struct Row {
    const char* motif;
    Motif m;
    double bytes_d;
    double bytes_f;
  };
  const Row rows[] = {
      {"GS", Motif::GS, gs_sweep_bytes(nnz, n, sizeof(double)),
       gs_sweep_bytes(nnz, n, sizeof(float))},
      {"Ortho", Motif::Ortho, cgs2_bytes<double>(n, k),
       cgs2_bytes<float>(n, k)},
      {"SpMV", Motif::SpMV, spmv_bytes(nnz, n, sizeof(double)),
       spmv_bytes(nnz, n, sizeof(float))},
      {"Restr", Motif::Restrict, fused_restrict_bytes<double>(nnz / 8, n, n / 8),
       fused_restrict_bytes<float>(nnz / 8, n, n / 8)},
  };
  const MachineModel k80 = MachineModel::k80();
  double total_d = 0, total_f = 0;
  for (const Row& r : rows) {
    total_d += r.bytes_d;
    total_f += r.bytes_f;
  }

  // Measured speedups on this host with the same harness as Fig. 5.
  BenchParams p = cfg.params;
  p.validation_ranks = 1;
  BenchmarkDriver driver(p, cfg.ranks);
  const ValidationResult v = driver.run_validation(ValidationMode::Standard);
  const PhaseResult mxp = driver.run_phase(true);
  const PhaseResult dbl = driver.run_phase(false);
  const double pen = v.penalty();
  const double total_speedup =
      dbl.raw_gflops > 0 ? mxp.raw_gflops * pen / dbl.raw_gflops : 0;

  if (json) {
    std::printf("{\n");
    std::printf("  \"exhibit\": \"fig6_k80\",\n");
    std::printf("  \"ranks\": %d,\n", cfg.ranks);
    std::printf("  \"local_grid\": [%d, %d, %d],\n", cfg.params.nx,
                cfg.params.ny, cfg.params.nz);
    std::printf("  \"motifs\": [\n");
    for (std::size_t i = 0; i < sizeof(rows) / sizeof(rows[0]); ++i) {
      const Row& r = rows[i];
      const double d = dbl.stats.gflops(r.m);
      std::printf("    {\"motif\": \"%s\", \"bytes_fp64\": %.6g, "
                  "\"bytes_fp32\": %.6g, \"bandwidth_bound\": %.6g, "
                  "\"measured_speedup\": %.6g}%s\n",
                  r.motif, r.bytes_d, r.bytes_f, r.bytes_d / r.bytes_f,
                  d > 0 ? mxp.stats.gflops(r.m) * pen / d : 0.0,
                  i + 1 < sizeof(rows) / sizeof(rows[0]) ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"total_bandwidth_bound\": %.6g,\n", total_d / total_f);
    std::printf("  \"total_measured_speedup\": %.6g,\n", total_speedup);
    std::printf("  \"penalty\": %.6g\n", pen);
    std::printf("}\n");
    return 0;
  }

  std::printf("bandwidth-bound speedup bound (bytes_fp64 / bytes_fp32),\n"
              "valid for ANY machine on the roofline incl. %s (%.0f GB/s):\n",
              k80.name.c_str(), k80.mem_bw_gbs);
  std::printf("%-8s %12s %12s %10s\n", "motif", "MB (fp64)", "MB (fp32)",
              "bound");
  for (const Row& r : rows) {
    std::printf("%-8s %12.2f %12.2f %9.2fx\n", r.motif, r.bytes_d * 1e-6,
                r.bytes_f * 1e-6, r.bytes_d / r.bytes_f);
  }
  std::printf("%-8s %12.2f %12.2f %9.2fx\n", "TOTAL", total_d * 1e-6,
              total_f * 1e-6, total_d / total_f);
  std::printf("\nmeasured on this host (third architecture data point):\n");
  std::printf("%-8s %10s\n", "motif", "speedup");
  std::printf("%-8s %9.2fx\n", "TOTAL", total_speedup);
  for (const Motif m : {Motif::GS, Motif::Ortho, Motif::SpMV, Motif::Restrict}) {
    const double d = dbl.stats.gflops(m);
    std::printf("%-8s %9.2fx\n", std::string(motif_name(m)).c_str(),
                d > 0 ? mxp.stats.gflops(m) * pen / d : 0.0);
  }
  std::printf("\npaper Fig. 6: K80 shows ~1.5-1.6x total — matching the\n"
              "bytes-bound, which is the paper's portability argument.\n");
  return 0;
}
