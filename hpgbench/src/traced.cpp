// Traced per-layer run (--trace 1). Spans are recorded here, around the
// benchmark's calls into each module's public functions; the library itself
// is not instrumented. Per-layer metrics come from:
//   perf      measure_stream_bandwidth (the roof, measured in this run)
//   grid      generate_problem;  coloring  jpl_color;  core  build_hierarchy
//   core      one solve per format through core's public API
//             (make_comm_world → Multigrid / Gmres / GmresIr), once plain and
//             once with MotifStats and the counting Comm wrapper: the time
//             difference is the tracing overhead
//   sparse    DistOperator::spmv / gs_forward on the fine level
//   precision convert_batch.hpp widen_block + narrow_block
//   blas      PhaseResult::stats of BenchmarkDriver::run_phase per format
//   service   the service-mix closed loop, or one warm solve_now elsewhere
// Every solve is checked: converged, reported relres <= 1e-9, and the
// iterate's true residual recomputed in fp64 with
// DistOperator::residual_norm2 agrees with the reported value.
#include <cmath>
#include <cstring>
#include <memory>
#include <type_traits>

#include "blas/vector_ops.hpp"
#include "coloring/coloring.hpp"
#include "common.hpp"
#include "core/bytes_model.hpp"
#include "counting_comm.hpp"
#include "perf/bandwidth.hpp"
#include "precision/convert_batch.hpp"
#include "spans.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hpgbench {

namespace {

/// STREAM arrays: 2^24 doubles = 128 MiB each, 384 MiB for the three —
/// at least 4x the single-thread cache knee measured between 3x16 MB and
/// 3x32 MB working sets (lscpu reports a 300 MiB shared L3).
constexpr std::size_t kStreamElements = std::size_t{1} << 24;
constexpr int kKernelReps = 20;
constexpr int kConvertReps = 50;

/// What one rank measured for one format.
struct RankFormat {
  double plain_s = 0.0;   ///< solve without stats or the Comm wrapper
  double traced_s = 0.0;  ///< the same solve, instrumented
  int plain_iters = 0;
  int traced_iters = 0;
  hpgmx::SolveStatus status = hpgmx::SolveStatus::Stagnated;
  double reported_relres = 0.0;
  double true_relres = 0.0;
  hpgmx::MotifStats stats;
  CountingComm::Counts counts;
  double spmv_s = 0.0;  ///< medians of single fine-level calls
  double gs_s = 0.0;
  double mg_s = 0.0;
  double spmv_bytes = 0.0;  ///< computed, core/bytes_model.hpp
  hpgmx::local_index_t rows = 0;
};

template <typename F>
double timed(F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Solves once with a multigrid-preconditioned solver of format `T` (fp64
/// GMRES for double, GMRES-IR otherwise) from a zero guess. With `traced`,
/// the solve runs on the counting wrapper with MotifStats attached and
/// spans around it, then the fine-level kernels are timed and the iterate's
/// residual is recomputed in fp64.
template <typename T>
void solve_format(hpgmx::Comm& comm, const hpgmx::ProblemHierarchy& h,
                  const hpgmx::BenchParams& params,
                  std::span<const double> level_max, bool traced,
                  SpanRecorder& spans, const char* fmt, RankFormat& out) {
  using namespace hpgmx;
  SolverOptions opts;
  opts.restart = params.restart_length;
  opts.max_iters = 500;
  opts.tol = kTol;
  const std::span<const double> b(h.levels[0].b.data(), h.levels[0].b.size());
  AlignedVector<double> x(b.size(), 0.0);
  MotifStats stats;

  ScaleGuard guard;
  std::unique_ptr<Multigrid<T>> mg;
  std::unique_ptr<DistOperator<double>> a_d;
  comm.barrier();
  const int root = traced ? spans.open(std::string("core.solve.") + fmt, -1,
                                       0, comm.rank())
                          : -1;
  CountingComm counting(comm, spans, root);
  Comm& c = traced ? static_cast<Comm&>(counting) : comm;
  const Clock::time_point t0 = Clock::now();
  SolveResult res;
  if constexpr (std::is_same_v<T, double>) {
    mg = std::make_unique<Multigrid<double>>(h, params);
    Gmres<double> solver(&mg->level_op(0), mg.get(), opts);
    if (traced) {
      solver.set_stats(&stats);
    }
    res = solver.solve(c, b, std::span<double>(x.data(), x.size()));
  } else {
    guard.initialize(guard_reference_max_abs(level_max, {}),
                     PrecisionTraits<T>::max_finite);
    mg = std::make_unique<Multigrid<T>>(h, params, /*tag_base=*/100,
                                        guard.scale(), PrecisionSchedule{},
                                        level_max);
    a_d = std::make_unique<DistOperator<double>>(
        h.levels[0].a, h.structures[0].get(), params.opt, /*tag=*/90);
    GmresIr<T> solver(a_d.get(), &mg->level_op(0), mg.get(), opts);
    solver.set_scale_guard(&guard);
    if (traced) {
      solver.set_stats(&stats);
    }
    res = solver.solve(c, b, std::span<double>(x.data(), x.size()));
  }
  const double local_s = seconds_since(t0);
  if (root >= 0) {
    spans.close(root);
  }
  const double elapsed = comm.allreduce_scalar(local_s, ReduceOp::Max);
  if (!traced) {
    out.plain_s = elapsed;
    out.plain_iters = res.iterations;
    return;
  }
  out.traced_s = elapsed;
  out.traced_iters = res.iterations;
  out.status = res.status;
  out.reported_relres = res.relative_residual;
  out.stats = stats;
  out.counts = counting.counts();

  // True relative residual of the returned iterate, in fp64.
  DistOperator<double> check_op(h.levels[0].a, h.structures[0].get(),
                                params.opt, /*tag=*/95);
  const auto len = static_cast<std::size_t>(check_op.vec_len());
  AlignedVector<double> xf(len, 0.0);
  AlignedVector<double> r(len, 0.0);
  std::copy(x.begin(), x.end(), xf.begin());
  const double r2 = check_op.residual_norm2(
      comm, b, std::span<double>(xf.data(), len),
      std::span<double>(r.data(), len));
  const double b2 = comm.allreduce_scalar(dot_span_blocked(b, b),
                                          ReduceOp::Sum);
  out.true_relres = std::sqrt(r2 / b2);

  // Fine-level kernels of this format: median of single calls.
  DistOperator<T>& op = mg->level_op(0);
  const auto vlen = static_cast<std::size_t>(op.vec_len());
  AlignedVector<T> xv(vlen, T(1.0f));
  AlignedVector<T> yv(vlen, T(0.0f));
  std::vector<double> spmv_t;
  std::vector<double> gs_t;
  std::vector<double> mg_t;
  const auto owned = static_cast<std::size_t>(op.num_owned());
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const ScopedSpan s(spans, std::string("sparse.spmv.") + fmt, -1, rep,
                       comm.rank());
    spmv_t.push_back(timed([&] {
      op.spmv(comm, std::span<T>(xv.data(), vlen),
              std::span<T>(yv.data(), vlen));
    }));
  }
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const ScopedSpan s(spans, std::string("sparse.gs_forward.") + fmt, -1,
                       rep, comm.rank());
    gs_t.push_back(timed([&] {
      op.gs_forward(comm, std::span<const T>(xv.data(), owned),
                    std::span<T>(yv.data(), vlen));
    }));
  }
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const ScopedSpan s(spans, std::string("core.mg_apply.") + fmt, -1, rep,
                       comm.rank());
    mg_t.push_back(timed([&] {
      mg->apply(comm, std::span<const T>(xv.data(), owned),
                std::span<T>(yv.data(), vlen));
    }));
  }
  out.spmv_s = median(spmv_t);
  out.gs_s = median(gs_t);
  out.mg_s = median(mg_t);
  out.rows = op.num_owned();
  out.spmv_bytes = spmv_bytes(op.nnz(), op.num_owned(),
                              PrecisionTraits<T>::bytes,
                              op.ell_index_bytes());
}

const char* moves(const std::string& name) {
  struct Rule {
    const char* prefix;
    const char* text;
  };
  static const Rule rules[] = {
      {"sparse.spmv_bytes", "solve_s.* on dram-4x48 [computed, bytes_model]"},
      {"sparse.spmv_roof", "solve_s.* on dram-4x48 [computed bytes / time]"},
      {"sparse.", "solve_s.*, speedup.* on dram-4x48 and cache-1x32"},
      {"blas.", "solve_s.*, hpgmxp_gflops on dram-4x48"},
      {"precision.", "solve_s.bf16 on cache-1x32"},
      {"core.iters_spread", "latency_p90_s on service-mix"},
      {"core.iters", "solve_s.*, hpgmxp_speedup on all workloads"},
      {"core.hierarchy", "setup_s on all workloads"},
      {"core.", "solve_s.* on all workloads"},
      {"grid.", "setup_s on all; latency_p90_s on service-mix"},
      {"coloring.", "setup_s on all; latency_p90_s on service-mix"},
      {"comm.", "solve_s.* on dram-4x48 (0 or unchanged elsewhere)"},
      {"service.", "solves_per_s, latency_p90_s on service-mix"},
      {"perf.", "nothing: the measured roof, not a target"},
      {"trace.", "tracing overhead: traced - untraced solve"},
  };
  for (const Rule& r : rules) {
    if (name.rfind(r.prefix, 0) == 0) {
      return r.text;
    }
  }
  return "";
}

}  // namespace

int run_traced(const RunArgs& args, Report& report) {
  using namespace hpgmx;
  const WorkloadSpec& w = *args.workload;
  const bool is_service = std::strcmp(w.name, "service-mix") == 0;
  SpanRecorder spans;
  auto metric = [&](const std::string& name, double v, const char* unit) {
    report.metric(name, v, unit, std::string("moves ") + moves(name));
  };

  // The roof is measured with the workload's whole thread budget (ranks x
  // workers x OpenMP threads), the cores its kernels share.
  double triad_gbs = 0.0;
  {
    const ScopedSpan s(spans, "perf.measure_stream_bandwidth");
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(w.ranks * w.workers * w.omp_threads);
#endif
    triad_gbs = measure_stream_bandwidth(kStreamElements, 3).triad_gbs;
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
  }
  std::printf("STREAM arrays: 3 x %zu MiB = %zu MiB (>= 4x the ~96 MB cache "
              "knee; lscpu L3 300 MiB)\n",
              kStreamElements * sizeof(double) >> 20,
              3 * kStreamElements * sizeof(double) >> 20);

  // The solved operator: the workload's own, or service-mix's most popular.
  const std::vector<PoolEntry> pool = service_pool();
  const ProblemDescriptor desc =
      is_service ? pool[1].desc : solver_descriptor(w, kFormats[1]);
  const BenchParams params = desc.to_bench_params();

  // ---- service layer ----
  double queue_wait = 0.0;
  double hit_ratio = 0.0;
  double miss_setup = 0.0;
  double retry_ratio = 0.0;
  double evictions = 0.0;
  std::array<double, kNumFormats> loop_spread{};
  if (is_service) {
    const ServiceLoop loop = run_service_loop(args, args.seconds, report,
                                              &spans);
    queue_wait = median(loop.queue_wait);
    const double lookups =
        static_cast<double>(loop.cache.hits + loop.cache.misses);
    hit_ratio = static_cast<double>(loop.cache.hits) / lookups;
    miss_setup = median(loop.miss_setup);
    retry_ratio = static_cast<double>(loop.retried) /
                  static_cast<double>(loop.requests);
    evictions = static_cast<double>(loop.cache.evictions);
    loop_spread = loop.iters_spread;
  } else {
    ServiceConfig cfg;
    cfg.workers = 1;
    SolverService svc(cfg);
    miss_setup = warm_cache(svc, desc);
    SolveRequest req;
    req.desc = desc;
    const Clock::time_point t0 = Clock::now();
    ServiceResult r;
    {
      const ScopedSpan s(spans, "service.solve_now", -1, 1);
      r = svc.solve_now(req);
    }
    const double lat = seconds_since(t0);
    report.attempt(service_ok(r));
    queue_wait = lat - r.setup_seconds - r.solve_seconds;
    const OperatorCacheStats st = svc.cache_stats();
    hit_ratio = static_cast<double>(st.hits) /
                static_cast<double>(st.hits + st.misses);
    evictions = static_cast<double>(st.evictions);
  }

  // ---- grid, coloring, hierarchy (what a cache miss builds) ----
  const ProcessGrid pgrid = ProcessGrid::create(desc.ranks);
  ProblemParams pp;
  pp.nx = desc.nx;
  pp.ny = desc.ny;
  pp.nz = desc.nz;
  pp.gamma = desc.gamma;
  pp.scenario = desc.scenario;
  double generate_s = 0.0;
  double build_s = 0.0;
  std::vector<ProblemHierarchy> hier;
  for (int r = 0; r < desc.ranks; ++r) {
    Problem prob;
    generate_s += timed([&] {
      const ScopedSpan s(spans, "grid.generate_problem", -1, r);
      prob = generate_problem(pgrid, r, pp);
    });
    build_s += timed([&] {
      const ScopedSpan s(spans, "core.build_hierarchy", -1, r);
      hier.push_back(
          build_hierarchy(std::move(prob), desc.mg_levels, desc.coloring_seed));
    });
  }
  // Computed (not measured) working set of one fp64 solve: every level's
  // stored matrix (8 B value + 4 B index per nonzero) plus the restart+1
  // Krylov vectors of the fine level.
  double ws_bytes = 0.0;
  for (const ProblemHierarchy& h : hier) {
    for (const Problem& lvl : h.levels) {
      ws_bytes += static_cast<double>(lvl.a.nnz()) * 12.0;
    }
    ws_bytes += static_cast<double>(params.restart_length + 1) *
                static_cast<double>(h.levels[0].a.num_rows) * 8.0;
  }
  std::printf("computed working set of one fp64 solve (one copy of each "
              "level matrix + Krylov basis): %.0f MB\n",
              ws_bytes / 1e6);

  std::vector<int> colors;
  const double color_s = timed([&] {
    const ScopedSpan s(spans, "coloring.jpl_color");
    colors = jpl_color(hier[0].levels[0].a, desc.coloring_seed);
  });
  std::vector<double> level_max = hierarchy_level_max_abs(hier[0]);
  for (std::size_t r = 1; r < hier.size(); ++r) {
    const std::vector<double> lm = hierarchy_level_max_abs(hier[r]);
    for (std::size_t l = 0; l < lm.size(); ++l) {
      level_max[l] = std::max(level_max[l], lm[l]);
    }
  }

  // ---- core solves, sparse kernels, comm counters ----
  std::vector<std::array<RankFormat, kNumFormats>> per_rank(
      static_cast<std::size_t>(desc.ranks));
  {
    const std::unique_ptr<CommWorld> world = make_comm_world(
        desc.ranks == 1 ? CommBackend::Self : CommBackend::Thread,
        desc.ranks);
    world->execute([&](Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      const ProblemHierarchy& h = hier[rank];
      const std::span<const double> lm(level_max.data(), level_max.size());
      for (const bool traced : {false, true}) {
        solve_format<double>(comm, h, params, lm, traced, spans, "fp64",
                             per_rank[rank][0]);
        solve_format<float>(comm, h, params, lm, traced, spans, "fp32",
                            per_rank[rank][1]);
        solve_format<bf16_t>(comm, h, params, lm, traced, spans, "bf16",
                             per_rank[rank][2]);
      }
    });
  }
  hier.clear();

  // ---- precision: one fine-vector widen + narrow ----
  const auto n_fine = static_cast<std::size_t>(per_rank[0][0].rows);
  std::array<double, 2> convert_s{};
  {
    AlignedVector<float> wide(n_fine, 1.0f);
    AlignedVector<bf16_t> bf(n_fine);
    AlignedVector<fp16_t> hf(n_fine);
    std::vector<double> tb;
    std::vector<double> th;
    for (int rep = 0; rep < kConvertReps; ++rep) {
      const ScopedSpan s(spans, "precision.widen_narrow", -1, rep);
      tb.push_back(timed([&] {
        narrow_block(wide.data(), bf.data(), n_fine);
        widen_block(bf.data(), wide.data(), n_fine);
      }));
      th.push_back(timed([&] {
        narrow_block(wide.data(), hf.data(), n_fine);
        widen_block(hf.data(), wide.data(), n_fine);
      }));
    }
    convert_s = {median(tb), median(th)};
  }

  // ---- blas: motif seconds per iteration from the driver's phases ----
  std::array<double, kNumFormats> ortho{};
  std::array<double, kNumFormats> vec{};
  {
    BenchParams p = params;
    p.validation_ranks = desc.ranks;
    p.bench_seconds = 0.5;
    p.max_iters_per_solve = p.restart_length;
    std::unique_ptr<BenchmarkDriver> driver;
    {
      const ScopedSpan s(spans, "driver.construct");
      driver = std::make_unique<BenchmarkDriver>(p, desc.ranks);
    }
    ValidationResult v;
    {
      const ScopedSpan s(spans, "driver.run_validation");
      v = driver->run_validation(ValidationMode::Standard);
    }
    report.check(v.d_converged && v.ir_converged,
                 "run_validation: both solves converge");
    std::printf("run_validation: n_d=%d n_ir=%d (traced solves: fp64 %d, "
                "fp32 %d)\n",
                v.n_d, v.n_ir, per_rank[0][0].traced_iters,
                per_rank[0][1].traced_iters);
    for (int f = 0; f < kNumFormats; ++f) {
      PhaseResult ph;
      {
        const ScopedSpan s(spans,
                           std::string("driver.run_phase.") + kFormats[f].name);
        if (f == 0) {
          ph = driver->run_phase(/*mixed=*/false);
        } else {
          driver->set_inner_precision(kFormats[f].inner);
          ph = driver->run_phase(/*mixed=*/true);
        }
      }
      // Phase stats are summed over ranks: divide for per-rank seconds.
      const double per_iter =
          static_cast<double>(ph.iterations) * static_cast<double>(desc.ranks);
      ortho[static_cast<std::size_t>(f)] =
          ph.stats.seconds(Motif::Ortho) / per_iter;
      vec[static_cast<std::size_t>(f)] =
          ph.stats.seconds(Motif::Vector) / per_iter;
    }
  }

  // ---- checks and metrics ----
  for (int f = 0; f < kNumFormats; ++f) {
    const RankFormat& r0 = per_rank[0][static_cast<std::size_t>(f)];
    const bool ok = r0.status == SolveStatus::Converged &&
                    r0.reported_relres <= kTol;
    report.attempt(ok);
    char what[192];
    std::snprintf(what, sizeof(what),
                  "%s: fp64 residual %.6g vs reported %.6g", kFormats[f].name,
                  r0.true_relres, r0.reported_relres);
    std::printf("%s\n", what);
    report.check(std::abs(r0.true_relres - r0.reported_relres) <=
                         1e-6 * r0.reported_relres &&
                     r0.true_relres <= kTol * (1.0 + 1e-6),
                 what);
  }

  metric("perf.stream_triad_gbs", triad_gbs, "GB/s");
  for (int f = 0; f < kNumFormats; ++f) {
    const std::string fmt = kFormats[f].name;
    const RankFormat& r0 = per_rank[0][static_cast<std::size_t>(f)];
    metric("sparse.spmv_s." + fmt, r0.spmv_s, "s");
    metric("sparse.gs_s." + fmt, r0.gs_s, "s");
    metric("sparse.spmv_bytes_per_row." + fmt,
           r0.spmv_bytes / static_cast<double>(r0.rows), "B");
    metric("sparse.spmv_roof_pct." + fmt,
           100.0 * r0.spmv_bytes * desc.ranks / r0.spmv_s /
               (triad_gbs * 1e9),
           "%");
  }
  for (int f = 0; f < kNumFormats; ++f) {
    const std::string fmt = kFormats[f].name;
    metric("blas.ortho_s_per_iter." + fmt, ortho[static_cast<std::size_t>(f)],
           "s");
    metric("blas.vector_s_per_iter." + fmt, vec[static_cast<std::size_t>(f)],
           "s");
  }
  metric("precision.convert_s.bf16", convert_s[0], "s");
  metric("precision.convert_s.fp16", convert_s[1], "s");
  for (int f = 0; f < kNumFormats; ++f) {
    const std::string fmt = kFormats[f].name;
    const RankFormat& r0 = per_rank[0][static_cast<std::size_t>(f)];
    const double it = r0.traced_iters;
    metric("core.iters." + fmt, it, "count");
    metric("core.iter_s." + fmt, r0.plain_s / r0.plain_iters, "s");
    metric("core.mg_apply_s." + fmt, r0.mg_s, "s");
    const double total = r0.stats.total_seconds();
    for (const Motif m :
         {Motif::GS, Motif::Ortho, Motif::SpMV, Motif::Restrict}) {
      metric("core.motif_share." + std::string(motif_name(m)) + "." + fmt,
             r0.stats.seconds(m) / total, "ratio");
    }
    const double spread =
        is_service ? loop_spread[static_cast<std::size_t>(f)]
                   : std::abs(r0.traced_iters - r0.plain_iters);
    metric("core.iters_spread." + fmt, spread, "count");
  }
  metric("core.hierarchy_build_s", build_s, "s");
  metric("grid.generate_s", generate_s, "s");
  metric("coloring.color_s", color_s, "s");
  metric("coloring.colors", num_colors(colors), "count");
  for (int f = 0; f < kNumFormats; ++f) {
    const std::string fmt = kFormats[f].name;
    const RankFormat& r0 = per_rank[0][static_cast<std::size_t>(f)];
    const double it = r0.traced_iters;
    double halo_bytes = 0.0;
    double wait = 0.0;
    for (const auto& rank : per_rank) {
      halo_bytes += static_cast<double>(
          rank[static_cast<std::size_t>(f)].counts.halo_bytes);
      wait += rank[static_cast<std::size_t>(f)].counts.wait_seconds;
    }
    wait /= static_cast<double>(desc.ranks);
    metric("comm.allreduces_per_iter." + fmt,
           static_cast<double>(r0.counts.allreduces) / it, "count");
    metric("comm.halo_bytes_per_iter." + fmt, halo_bytes / it, "B");
    metric("comm.wait_s_per_iter." + fmt, wait / it, "s");
    metric("comm.wait_share." + fmt, wait / r0.traced_s, "ratio");
  }
  metric("service.queue_wait_s", queue_wait, "s");
  metric("service.cache_hit_ratio", hit_ratio, "ratio");
  metric("service.miss_setup_s", miss_setup, "s");
  metric("service.retry_ratio", retry_ratio, "ratio");
  metric("service.evictions", evictions, "count");
  for (int f = 0; f < kNumFormats; ++f) {
    const RankFormat& r0 = per_rank[0][static_cast<std::size_t>(f)];
    metric(std::string("trace.overhead_s.") + kFormats[f].name,
           r0.traced_s - r0.plain_s, "s");
  }

  std::printf("self time per span name (s):\n");
  for (const auto& [name, s] : spans.self_seconds()) {
    std::printf("  %-36s %.6f\n", name.c_str(), s);
  }
  if (!args.trace_out.empty()) {
    report.check(spans.write_chrome_trace(args.trace_out),
                 "write Chrome trace " + args.trace_out);
    std::printf("trace: %s (Chrome trace-event JSON)\n",
                args.trace_out.c_str());
  }
  return 0;
}

}  // namespace hpgbench
