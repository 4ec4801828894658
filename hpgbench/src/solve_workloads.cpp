// Untraced end-to-end run of the two solver workloads (cache-1x32,
// dram-4x48): warm solves to 1e-9 through SolverService::solve_now in fp64
// GMRES, fp32 GMRES-IR and bf16 GMRES-IR, interleaved with the HPG-MxP
// score's phases.
#include <array>
#include <numeric>
#include <random>

#include "common.hpp"

namespace hpgbench {

hpgmx::BenchParams ScorePairs::params(
    const hpgmx::ProblemDescriptor& fp32_desc) {
  hpgmx::BenchParams p = fp32_desc.to_bench_params();
  p.validation_ranks = fp32_desc.ranks;
  p.bench_seconds = 0.0;  // a phase stops after its first solve
  p.max_iters_per_solve = p.restart_length;
  return p;
}

void ScorePairs::run_pair(hpgmx::BenchmarkDriver& driver, bool mixed_first) {
  hpgmx::PhaseResult first = driver.run_phase(mixed_first);
  hpgmx::PhaseResult second = driver.run_phase(!mixed_first);
  pairs.emplace_back(mixed_first ? std::move(first) : std::move(second),
                     mixed_first ? std::move(second) : std::move(first));
}

namespace {

std::vector<double> per_pair(const ScorePairs& s,
                             const hpgmx::ValidationResult& v,
                             double (hpgmx::BenchReport::*fn)() const) {
  std::vector<double> out;
  for (const auto& [mxp, dbl] : s.pairs) {
    hpgmx::BenchReport r;
    r.validation = v;
    r.mxp = mxp;
    r.dbl = dbl;
    out.push_back((r.*fn)());
  }
  return out;
}

}  // namespace

double ScorePairs::penalized_gflops(const hpgmx::ValidationResult& v) const {
  return median(per_pair(*this, v, &hpgmx::BenchReport::penalized_gflops));
}

double ScorePairs::speedup(const hpgmx::ValidationResult& v) const {
  return median(per_pair(*this, v, &hpgmx::BenchReport::speedup));
}

int run_solver_workload(const RunArgs& args, Report& report) {
  const WorkloadSpec& w = *args.workload;
  std::array<hpgmx::ProblemDescriptor, kNumFormats> descs;
  for (int f = 0; f < kNumFormats; ++f) {
    descs[static_cast<std::size_t>(f)] = solver_descriptor(w, kFormats[f]);
  }

  // One operator serves all three formats: setup_s times its build.
  const std::vector<double> setup = time_setup({descs[0]});
  std::vector<double> cold_builds;
  std::array<std::vector<double>, kNumFormats> solve_s;
  std::array<std::vector<double>, kNumFormats> iters;
  std::array<std::vector<double>, kNumFormats> round_speedup;
  std::vector<double> latency;
  ScorePairs score;
  {
    hpgmx::ServiceConfig cfg;
    cfg.workers = 1;
    hpgmx::SolverService svc(cfg);
    // The three format descriptors share one operator but are separate
    // cache entries: the service builds the hierarchy three times.
    for (const hpgmx::ProblemDescriptor& d : descs) {
      cold_builds.push_back(warm_cache(svc, d));
    }
    hpgmx::BenchmarkDriver driver(ScorePairs::params(descs[1]), w.ranks);

    // Rounds of one solve per format and one score pair, in a seeded
    // random order so drift on the host favours no format. Slow periods on
    // a shared host last seconds to minutes, so speedups are taken within
    // a round (paired) and the median over rounds is reported. A round
    // starts only if it is expected to end within --seconds.
    std::mt19937_64 rng(args.seed);
    std::array<int, kNumFormats> order{};
    std::iota(order.begin(), order.end(), 0);
    const Clock::time_point t0 = Clock::now();
    int rounds = 0;
    for (;;) {
      std::shuffle(order.begin(), order.end(), rng);
      std::array<double, kNumFormats> round_s{};
      for (const int f : order) {
        const auto fi = static_cast<std::size_t>(f);
        hpgmx::SolveRequest req;
        req.desc = descs[fi];
        const Clock::time_point ts = Clock::now();
        const hpgmx::ServiceResult r = svc.solve_now(req);
        const double dt = seconds_since(ts);
        const bool ok = service_ok(r) && r.cache_hit;
        report.attempt(ok);
        round_s[fi] = dt;
        solve_s[fi].push_back(dt);
        iters[fi].push_back(service_iterations(r));
        latency.push_back(ok ? dt : std::numeric_limits<double>::infinity());
      }
      for (int f = 1; f < kNumFormats; ++f) {
        round_speedup[static_cast<std::size_t>(f)].push_back(
            round_s[0] / round_s[static_cast<std::size_t>(f)]);
      }
      score.run_pair(driver, (rng() & 1u) != 0);
      ++rounds;
      const double loop_s = seconds_since(t0);
      if (loop_s + loop_s / rounds > args.seconds) {
        break;
      }
    }
  }

  // The score's validation counts n_d / n_ir are the timed fp64 GMRES and
  // fp32 GMRES-IR solves above: both start from zero and stop at 1e-9 on
  // the same world, which is run_validation's Standard mode at
  // validation_ranks = ranks. The traced run calls run_validation itself.
  hpgmx::ValidationResult v;
  v.ranks = w.ranks;
  v.n_d = static_cast<int>(median(iters[0]));
  v.n_ir = static_cast<int>(median(iters[1]));
  v.achieved_tol = kTol;

  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "; in-service cold builds: median=%.6g n=%zu",
                median(cold_builds), cold_builds.size());
  report.metric("setup_s", median(setup), "s",
                "OperatorCache::build_entry: " + describe(setup) + buf);
  for (int f = 0; f < kNumFormats; ++f) {
    const auto& s = solve_s[static_cast<std::size_t>(f)];
    const auto& it = iters[static_cast<std::size_t>(f)];
    std::snprintf(buf, sizeof(buf), " iters=%g iters_spread=%g", median(it),
                  *std::max_element(it.begin(), it.end()) -
                      *std::min_element(it.begin(), it.end()));
    report.metric(std::string("solve_s.") + kFormats[f].name, median(s), "s",
                  describe(s) + buf);
  }
  for (int f = 1; f < kNumFormats; ++f) {
    const auto& s = round_speedup[static_cast<std::size_t>(f)];
    report.metric(std::string("speedup.") + kFormats[f].name, median(s), "x",
                  std::string("fp64 / ") + kFormats[f].name +
                      " solve time within a round: " + describe(s));
  }
  std::snprintf(buf, sizeof(buf),
                "median over %zu phase pairs; n_d=%d n_ir=%d penalty=%.4g",
                score.pairs.size(), v.n_d, v.n_ir, v.penalty());
  report.metric("hpgmxp_gflops", score.penalized_gflops(v), "GFLOP/s", buf);
  report.metric("hpgmxp_speedup", score.speedup(v), "x",
                "penalized mxp / double GFLOP/s, median over pairs");
  double solving_s = 0.0;
  for (const auto& s : solve_s) {
    solving_s = std::accumulate(s.begin(), s.end(), solving_s);
  }
  report.metric("solves_per_s", static_cast<double>(latency.size()) / solving_s,
                "1/s", "warm solves of all formats per second of solve_now");
  report.metric("latency_p50_s", quantile(latency, 0.5), "s",
                "solve_now call, all formats: " + describe(latency));
  report.metric("latency_p90_s", quantile(latency, 0.9), "s", "");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "");
  return 0;
}

}  // namespace hpgbench
