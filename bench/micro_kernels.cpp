// Kernel microbenchmarks covering the paper's §3.2 design choices as
// ablations, self-contained (no external benchmark framework so the
// harness always builds and owns its JSON schema):
//
//   CSR vs ELL SpMV                                    (§3.2.2)
//   the multicolor ELL Gauss–Seidel sweep                (§3.2.1)
//   fused vs unfused solver passes: spmv_dot, waxpby_norm, residual_norm,
//     and the CGS2 gemv_n_sub + norm fusion
//   batched vs scalar bf16/fp16 <-> fp32 span conversions
//   dot/WAXPBY across storage precisions (memory-bound 2x/4x expectation)
//
// Every row reports the *modeled* streaming bytes (bytes_model.hpp), the
// modeled bytes per matrix row where applicable, and the effective GB/s
// (modeled bytes / measured seconds) — "effective" because a 16-bit kernel
// that streams half the bytes at equal time shows half the GB/s, which is
// exactly the memory-wall win the trajectory tracks.
//
//   $ ./micro_kernels [--json]
//
// The ELL rows time the kernels the solver runs: the row-list SpMV over
// every row (one rank's interior list) and the colored row-list GS sweep.
//
// --json emits one machine-readable object on stdout (the BENCH_kernels
// perf-trajectory format; see bench/run_bench.sh). Exit code: nonzero when
// any 16-bit ELL SpMV row's modeled bytes/row is not strictly below the
// fp32 row's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "base/options.hpp"
#include "base/timer.hpp"
#include "blas/multivector.hpp"
#include "blas/vector_ops.hpp"
#include "coloring/coloring.hpp"
#include "core/bytes_model.hpp"
#include "exhibit_common.hpp"
#include "grid/problem.hpp"
#include "precision/convert_batch.hpp"
#include "precision/float16.hpp"
#include "sparse/gauss_seidel.hpp"
#include "sparse/kernels.hpp"

namespace {

using namespace hpgmx;

struct Row {
  std::string kernel;   ///< e.g. "spmv_ell"
  std::string format;   ///< "fp64" / "fp32" / "bf16" / "fp16"
  std::string variant;  ///< "scalar" / "rowlist" / "fused" / "unfused" / ...
  double bytes = 0;          ///< modeled streaming bytes per call
  double bytes_per_row = 0;  ///< modeled bytes per matrix row (0: vector op)
  double seconds = 0;        ///< measured seconds per call
  int reps = 0;

  [[nodiscard]] double gbs() const {
    return seconds > 0 ? bytes / seconds * 1e-9 : 0.0;
  }
};

/// Time fn() adaptively: one warmup, one calibration call, then enough
/// repetitions to fill ~target_seconds. Returns seconds per call.
template <typename F>
double time_kernel_adaptive(double target_seconds, F&& fn, int* reps_out) {
  fn();  // warmup (page faults, frequency ramp)
  WallTimer cal;
  fn();
  const double t1 = std::max(cal.seconds(), 1e-9);
  const int reps = std::clamp(static_cast<int>(target_seconds / t1), 1, 20000);
  WallTimer t;
  for (int i = 0; i < reps; ++i) {
    fn();
  }
  *reps_out = reps;
  return t.seconds() / reps;
}

template <typename F>
Row make_row(const char* kernel, const char* format, const char* variant,
             double bytes, local_index_t rows_for_per_row, double target,
             F&& fn) {
  Row r;
  r.kernel = kernel;
  r.format = format;
  r.variant = variant;
  r.bytes = bytes;
  r.bytes_per_row =
      rows_for_per_row > 0 ? bytes / static_cast<double>(rows_for_per_row) : 0;
  r.seconds = time_kernel_adaptive(target, fn, &r.reps);
  return r;
}

Problem make_problem(local_index_t n) {
  ProcessGrid pgrid(1, 1, 1);
  ProblemParams pp;
  pp.nx = pp.ny = pp.nz = n;
  return generate_problem(pgrid, 0, pp);
}

template <typename T>
void add_spmv(std::vector<Row>& out, const Problem& prob, double target) {
  const CsrMatrix<T> a = prob.a.convert<T>();
  const EllMatrix<T> e = ell_from_csr(a);
  const local_index_t n = e.num_rows;
  const std::size_t vb = PrecisionTraits<T>::bytes;
  const char* fmt = PrecisionTraits<T>::name.data();
  AlignedVector<T> x(static_cast<std::size_t>(e.num_cols), T(1));
  AlignedVector<T> y(static_cast<std::size_t>(n), T(0));
  const double csr_b = spmv_bytes(a.nnz(), n, vb);

  out.push_back(make_row("spmv_csr", fmt, "scalar", csr_b, n, target, [&] {
    csr_spmv(a, std::span<const T>(x.data(), x.size()),
             std::span<T>(y.data(), y.size()));
  }));
  const double ell_b = spmv_bytes(e.padded_nnz(), n, vb);
  AlignedVector<local_index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), local_index_t{0});
  out.push_back(make_row("spmv_ell", fmt, "rowlist", ell_b, n, target, [&] {
    ell_spmv_rows(e, std::span<const T>(x.data(), x.size()),
                  std::span<T>(y.data(), y.size()),
                  std::span<const local_index_t>(rows.data(), rows.size()));
  }));
}

template <typename T>
void add_gs(std::vector<Row>& out, const Problem& prob, double target) {
  const CsrMatrix<T> a = prob.a.convert<T>();
  const EllMatrix<T> e = ell_from_csr(a);
  const local_index_t n = e.num_rows;
  const char* fmt = PrecisionTraits<T>::name.data();
  const auto colors = jpl_color(a, 42);
  const RowPartition part = color_partition(colors);
  AlignedVector<T> r(static_cast<std::size_t>(n), T(1));
  AlignedVector<T> z(static_cast<std::size_t>(e.num_cols), T(0));
  const double b =
      gs_sweep_bytes(e.padded_nnz(), n, PrecisionTraits<T>::bytes);
  out.push_back(
      make_row("gs_multicolor_ell", fmt, "rowlist", b, n, target, [&] {
        gs_sweep_colored_ell(e, part, std::span<const T>(r.data(), r.size()),
                             std::span<T>(z.data(), z.size()));
      }));
}

template <typename T>
void add_fused(std::vector<Row>& out, const Problem& prob, double target) {
  const CsrMatrix<T> a = prob.a.convert<T>();
  const local_index_t n = a.num_rows;
  const std::size_t vb = PrecisionTraits<T>::bytes;
  const char* fmt = PrecisionTraits<T>::name.data();
  AlignedVector<T> x(static_cast<std::size_t>(a.num_cols), T(1));
  AlignedVector<T> y(static_cast<std::size_t>(n), T(0));
  AlignedVector<T> b(static_cast<std::size_t>(n), T(1));
  AlignedVector<T> w(static_cast<std::size_t>(n), T(0));
  volatile double sink = 0;

  out.push_back(make_row(
      "spmv_dot", fmt, "fused", spmv_dot_bytes(a.nnz(), n, vb), n, target,
      [&] {
        sink = csr_spmv_dot(a, std::span<const T>(x.data(), x.size()),
                            std::span<T>(y.data(), y.size()));
      }));
  out.push_back(make_row(
      "spmv_dot", fmt, "unfused",
      spmv_bytes(a.nnz(), n, vb) + dot_bytes<T>(n), n, target,
      [&] {
        csr_spmv(a, std::span<const T>(x.data(), x.size()),
                 std::span<T>(y.data(), y.size()));
        sink = dot_span_blocked(
            std::span<const T>(y.data(), y.size()),
            std::span<const T>(x.data(), static_cast<std::size_t>(n)));
      }));
  out.push_back(make_row(
      "residual_norm", fmt, "fused", residual_norm_bytes(a.nnz(), n, vb), n,
      target,
      [&] {
        sink = csr_residual_norm2(a, std::span<const T>(b.data(), b.size()),
                                  std::span<const T>(x.data(), x.size()),
                                  std::span<T>(y.data(), y.size()));
      }));
  out.push_back(make_row(
      "residual_norm", fmt, "unfused",
      residual_bytes(a.nnz(), n, vb) + dot_bytes<T>(n), n, target,
      [&] {
        csr_residual(a, std::span<const T>(b.data(), b.size()),
                     std::span<const T>(x.data(), x.size()),
                     std::span<T>(y.data(), y.size()));
        sink = dot_span_blocked(std::span<const T>(y.data(), y.size()),
                                std::span<const T>(y.data(), y.size()));
      }));
  out.push_back(make_row(
      "waxpby_norm", fmt, "fused", waxpby_norm_bytes(n, vb), 0, target, [&] {
        sink = waxpby_norm(2.0,
                           std::span<const T>(b.data(), b.size()), 3.0,
                           std::span<const T>(y.data(), y.size()),
                           std::span<T>(w.data(), w.size()));
      }));
  out.push_back(make_row(
      "waxpby_norm", fmt, "unfused",
      3.0 * static_cast<double>(n) * static_cast<double>(vb) + dot_bytes<T>(n),
      0, target, [&] {
        waxpby(2.0, std::span<const T>(b.data(), b.size()), 3.0,
               std::span<const T>(y.data(), y.size()),
               std::span<T>(w.data(), w.size()));
        sink = dot_span_blocked(std::span<const T>(w.data(), w.size()),
                                std::span<const T>(w.data(), w.size()));
      }));
  (void)sink;
}

/// The CGS2 normalization fusion: w ← w − Q h with ‖w‖² folded in
/// (gemv_n_sub_norm) vs the unfused projection + separate blocked norm
/// sweep. k basis vectors, DRAM-resident length.
template <typename T>
void add_cgs2(std::vector<Row>& out, std::size_t len, double target) {
  const char* fmt = PrecisionTraits<T>::name.data();
  const std::size_t vb = PrecisionTraits<T>::bytes;
  const int k = 8;
  MultiVector<T> q(static_cast<local_index_t>(len), k);
  for (int j = 0; j < k; ++j) {
    auto col = q.column(j);
    for (std::size_t i = 0; i < len; ++i) {
      col[i] = T(0.25f + 0.001f * static_cast<float>(j));
    }
  }
  AlignedVector<T> h(static_cast<std::size_t>(k), T(0.01f));
  AlignedVector<T> w(len, T(1));
  volatile double sink = 0;
  out.push_back(make_row(
      "gemv_n_norm", fmt, "fused",
      gemv_n_norm_bytes(static_cast<local_index_t>(len), k, vb), 0, target,
      [&] {
        sink = gemv_n_sub_norm(q, k, std::span<const T>(h.data(), h.size()),
                               std::span<T>(w.data(), w.size()));
      }));
  out.push_back(make_row(
      "gemv_n_norm", fmt, "unfused",
      gemv_n_sub_bytes(static_cast<local_index_t>(len), k, vb) +
          dot_bytes<T>(static_cast<local_index_t>(len)),
      0, target, [&] {
        gemv_n_sub(q, k, std::span<const T>(h.data(), h.size()),
                   std::span<T>(w.data(), w.size()));
        sink = dot_span_blocked(std::span<const T>(w.data(), w.size()),
                                std::span<const T>(w.data(), w.size()));
      }));
  (void)sink;
}

template <typename T>
void add_convert(std::vector<Row>& out, std::size_t len, double target) {
  const char* fmt = PrecisionTraits<T>::name.data();
  AlignedVector<T> narrow(len, T(1.5f));
  AlignedVector<float> wide(len, 0.0f);
  const double bytes =
      static_cast<double>(len) * (sizeof(T) + sizeof(float));

  out.push_back(make_row("convert_widen", fmt, "batched", bytes, 0, target,
                         [&] {
                           convert_span(
                               std::span<const T>(narrow.data(), len),
                               std::span<float>(wide.data(), len));
                         }));
  out.push_back(make_row("convert_widen", fmt, "scalar", bytes, 0, target,
                         [&] {
                           const T* __restrict s = narrow.data();
                           float* __restrict d = wide.data();
#pragma omp parallel for schedule(static)
                           for (std::size_t i = 0; i < len; ++i) {
                             d[i] = static_cast<float>(s[i]);
                           }
                         }));
  out.push_back(make_row("convert_narrow", fmt, "batched", bytes, 0, target,
                         [&] {
                           convert_span(
                               std::span<const float>(wide.data(), len),
                               std::span<T>(narrow.data(), len));
                         }));
  out.push_back(make_row("convert_narrow", fmt, "scalar", bytes, 0, target,
                         [&] {
                           const float* __restrict s = wide.data();
                           T* __restrict d = narrow.data();
#pragma omp parallel for schedule(static)
                           for (std::size_t i = 0; i < len; ++i) {
                             d[i] = static_cast<T>(s[i]);
                           }
                         }));
}

template <typename T>
void add_blas1(std::vector<Row>& out, std::size_t len, double target) {
  const char* fmt = PrecisionTraits<T>::name.data();
  AlignedVector<T> x(len, T(1.5f)), y(len, T(0.5f)), w(len, T(0));
  volatile double sink = 0;
  out.push_back(make_row(
      "dot", fmt, "blocked", 2.0 * static_cast<double>(len) * sizeof(T), 0,
      target, [&] {
        sink = dot_span_blocked(std::span<const T>(x.data(), len),
                                std::span<const T>(y.data(), len));
      }));
  out.push_back(make_row(
      "waxpby", fmt, "scalar", 3.0 * static_cast<double>(len) * sizeof(T), 0,
      target, [&] {
        waxpby(2.0, std::span<const T>(x.data(), len), 3.0,
               std::span<const T>(y.data(), len), std::span<T>(w.data(), len));
      }));
  (void)sink;
}

[[nodiscard]] const Row* find_row(const std::vector<Row>& rows,
                                  const char* kernel, const char* format,
                                  const char* variant) {
  for (const Row& r : rows) {
    if (r.kernel == kernel && r.format == format && r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

void print_json(const std::vector<Row>& rows, local_index_t nx,
                bool gate_pass) {
  std::printf("{\n");
  std::printf("  \"exhibit\": \"micro_kernels\",\n");
  std::printf("  \"local_grid\": [%d, %d, %d],\n", nx, nx, nx);
  std::printf("  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"kernel\": \"%s\", \"format\": \"%s\", "
                "\"variant\": \"%s\", \"gbs\": %.6g, "
                "\"bytes_per_row\": %.6g, "
                "\"modeled_bytes\": %.6g, \"seconds_per_call\": %.6g, "
                "\"reps\": %d}%s\n",
                r.kernel.c_str(), r.format.c_str(), r.variant.c_str(), r.gbs(),
                r.bytes_per_row, r.bytes, r.seconds, r.reps,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"gate\": {\"rule\": \"16-bit ELL SpMV modeled bytes/row "
              "strictly below fp32\", \"pass\": %s}\n",
              gate_pass ? "true" : "false");
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::has_flag(argc, argv, "--json");
  const auto nx =
      static_cast<local_index_t>(env_int_or("HPGMX_NX", 32));
  const double target = env_double_or("HPGMX_BENCH_SECONDS", 0.15);
  if (!json) {
    bench::banner("micro_kernels",
                  "per-kernel ablations: CSR/ELL SpMV, colored GS, "
                  "fused vs unfused solver passes, batched conversions");
  }

  const Problem prob = make_problem(nx);
  // BLAS1/conversion rows need a DRAM-resident working set or they measure
  // cache bandwidth instead of the memory wall; floor at 1M elements.
  const std::size_t veclen =
      std::max<std::size_t>(static_cast<std::size_t>(prob.a.num_rows),
                            std::size_t{1} << 20);
  std::vector<Row> rows;

  add_spmv<double>(rows, prob, target);
  add_spmv<float>(rows, prob, target);
  add_spmv<bf16_t>(rows, prob, target);
  add_spmv<fp16_t>(rows, prob, target);
  add_gs<float>(rows, prob, target);
  add_gs<bf16_t>(rows, prob, target);
  add_fused<float>(rows, prob, target);
  add_fused<bf16_t>(rows, prob, target);
  add_cgs2<float>(rows, veclen, target);
  add_cgs2<bf16_t>(rows, veclen, target);
  add_convert<bf16_t>(rows, veclen, target);
  add_convert<fp16_t>(rows, veclen, target);
  add_blas1<double>(rows, veclen, target);
  add_blas1<float>(rows, veclen, target);
  add_blas1<bf16_t>(rows, veclen, target);

  // Smoke gate for CI: the memory-wall invariant. A 16-bit ELL SpMV must
  // model strictly fewer bytes per row than the fp32 kernel; if a format or
  // layout change regresses that, the whole mixed-precision speedup story is
  // broken and the benchmark exits nonzero.
  const Row* f32 = find_row(rows, "spmv_ell", "fp32", "rowlist");
  bool gate_pass = f32 != nullptr;
  for (const Row& r : rows) {
    if (r.kernel == "spmv_ell" && (r.format == "bf16" || r.format == "fp16")) {
      gate_pass = gate_pass && f32 != nullptr &&
                  r.bytes_per_row < f32->bytes_per_row;
    }
  }

  if (json) {
    print_json(rows, nx, gate_pass);
  } else {
    std::printf("%-16s %-6s %-8s %10s %12s %12s %7s\n", "kernel", "format",
                "variant", "GB/s", "bytes/row", "us/call", "reps");
    for (const Row& r : rows) {
      std::printf("%-16s %-6s %-8s %10.2f %12.1f %12.2f %7d\n",
                  r.kernel.c_str(), r.format.c_str(), r.variant.c_str(),
                  r.gbs(), r.bytes_per_row, r.seconds * 1e6, r.reps);
    }
    std::printf("\ngate (16-bit SpMV bytes/row < fp32): %s\n",
                gate_pass ? "PASS" : "FAIL");
  }
  return gate_pass ? 0 : 1;
}
