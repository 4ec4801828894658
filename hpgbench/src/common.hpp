// Shared pieces of the benchmark runner: workload table, sample statistics,
// metric report (human lines + the final JSON line) and the solve formats.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/benchmark.hpp"
#include "service/solver_service.hpp"

namespace hpgbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every timed solve must reach this relative residual (paper Table 1).
inline constexpr double kTol = 1e-9;

/// One workload of BENCHMARK.json. `omp_threads` is what the runner script
/// exports as OMP_NUM_THREADS; ranks × workers × omp_threads is the thread
/// budget checked against the host's cores.
struct WorkloadSpec {
  const char* name;
  int ranks;
  int n;  ///< local grid edge per rank (service-mix: the scored operator)
  int workers;
  int omp_threads;
  const char* why;
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"cache-1x32", 1, 32, 1, 1,
     "1 rank x 32^3, 1 thread: cache-resident, per-element costs dominate"},
    {"dram-4x48", 4, 48, 1, 1,
     "4 ThreadComm ranks x 48^3: DRAM-resident, bytes and halo/allreduce "
     "traffic dominate"},
    {"service-mix", 1, 24, 2, 1,
     "SolverService closed loop, 2 workers x 1 thread, Zipf mix of 16 "
     "descriptors through an 8-entry cache"},
};

/// The three solve formats every solver workload times: fp64 GMRES and
/// GMRES-IR with fp32 / bf16 inner storage.
struct Format {
  const char* name;
  hpgmx::SolverKind kind;
  hpgmx::Precision inner;
};

inline constexpr Format kFormats[] = {
    {"fp64", hpgmx::SolverKind::Gmres, hpgmx::Precision::Fp64},
    {"fp32", hpgmx::SolverKind::GmresIr, hpgmx::Precision::Fp32},
    {"bf16", hpgmx::SolverKind::GmresIr, hpgmx::Precision::Bf16},
};
inline constexpr int kNumFormats = 3;

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(v[hi]) || frac == 0.0) {
    return frac == 0.0 ? v[lo] : v[hi];
  }
  return v[lo] + frac * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// "median=… p90=… (n=…)": the median plus the highest of p90/p99/p99.9
/// that still has at least ten samples beyond it.
[[nodiscard]] inline std::string describe(const std::vector<double>& v) {
  char buf[160];
  const double n = static_cast<double>(v.size());
  std::string tail;
  for (const double p : {0.999, 0.99, 0.9}) {
    if (n * (1.0 - p) >= 10.0) {
      std::snprintf(buf, sizeof(buf), " p%g=%.6g", p * 100.0, quantile(v, p));
      tail = buf;
      break;
    }
  }
  if (tail.empty()) {
    tail = " (no percentile has 10 samples beyond it)";
  }
  std::snprintf(buf, sizeof(buf), "median=%.6g", median(v));
  std::string out = std::string(buf) + tail + " n=" + std::to_string(v.size());
  if (v.size() <= 12) {
    out += " samples=";
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.4g", i > 0 ? "," : "", v[i]);
      out += buf;
    }
  }
  return out;
}

/// True when a service result is a correct solve: converged, and every
/// right-hand side reports relres <= tol.
[[nodiscard]] inline bool service_ok(const hpgmx::ServiceResult& r) {
  if (r.status != hpgmx::SolveStatus::Converged || r.rhs.empty()) {
    return false;
  }
  for (const hpgmx::SolveResult& s : r.rhs) {
    if (!s.converged() || !(s.relative_residual <= kTol)) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] inline int service_iterations(const hpgmx::ServiceResult& r) {
  int it = 0;
  for (const hpgmx::AttemptRecord& a : r.attempts) {
    it += a.iterations;
  }
  return it;
}

/// Collects metrics and prints them. End-to-end metrics go to the JSON line
/// of an untraced run, per-layer metrics to that of a traced run; both are
/// printed by name with their unit on the human lines.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit,
              const std::string& note = "") {
    entries_.push_back(Entry{name, value, unit, note});
  }

  void attempt(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }
  /// A check outside the solves (e.g. the fp64 residual cross-check).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_checks_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && failed_checks_ == 0 && attempted_ > 0;
  }

  /// Human lines then the one-line JSON result (last line of stdout).
  void print() const {
    for (const Entry& e : entries_) {
      std::printf("%-34s %14.6g %-6s %s\n", e.name.c_str(), e.value, e.unit,
                  e.note.c_str());
    }
    std::printf("attempted=%ld failed=%ld failed_ratio=%.6g correct=%s\n",
                attempted_, failed_,
                attempted_ > 0 ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 1.0,
                correct() ? "true" : "false");
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Entry& e : entries_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(e.value) ? e.value : -1.0);
      json += first ? "" : ", ";
      json += "\"" + e.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + e.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Entry> entries_;
  long attempted_ = 0;
  long failed_ = 0;
  long failed_checks_ = 0;
};

struct RunArgs {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
};

/// Descriptor of one solver workload's operator at one format.
[[nodiscard]] inline hpgmx::ProblemDescriptor solver_descriptor(
    const WorkloadSpec& w, const Format& f) {
  hpgmx::ProblemDescriptor d;
  d.nx = d.ny = d.nz = w.n;
  d.ranks = w.ranks;
  d.solver = f.kind;
  d.inner_precision = f.inner;
  d.tol = kTol;
  return d;
}

/// Loads `desc`'s operator into the service cache without paying for a full
/// solve: the request carries a cancel token that is tripped as soon as the
/// cache records the build (stats() waits on the cache mutex the build
/// holds), so the solve stops at its first reduction. Returns the build's
/// wall time measured from the submit.
double warm_cache(hpgmx::SolverService& svc,
                  const hpgmx::ProblemDescriptor& desc);

/// Set-up samples: cold builds of every descriptor in `descs` through
/// OperatorCache::build_entry (what a cache miss runs), each timed from
/// outside, repeated at least five times and for at least a second.
[[nodiscard]] std::vector<double> time_setup(
    const std::vector<hpgmx::ProblemDescriptor>& descs);

[[nodiscard]] double peak_rss_mb();

/// HPG-MxP score samples: pairs of an fp32-inner mixed phase and a double
/// phase of BenchmarkDriver::run_phase, run back to back, each one
/// 30-iteration solve (one restart cycle).
struct ScorePairs {
  std::vector<std::pair<hpgmx::PhaseResult, hpgmx::PhaseResult>> pairs;

  /// Driver parameters for `fp32_desc`'s operator.
  [[nodiscard]] static hpgmx::BenchParams params(
      const hpgmx::ProblemDescriptor& fp32_desc);
  void run_pair(hpgmx::BenchmarkDriver& driver, bool mixed_first);
  /// Median over pairs of BenchReport::penalized_gflops / ::speedup.
  [[nodiscard]] double penalized_gflops(const hpgmx::ValidationResult& v) const;
  [[nodiscard]] double speedup(const hpgmx::ValidationResult& v) const;
};

class SpanRecorder;

/// One entry of the service-mix descriptor pool.
struct PoolEntry {
  hpgmx::ProblemDescriptor desc;
  int format;     ///< index into kFormats, or -1 for the fp16 retry probe
  double weight;  ///< draw probability (unnormalised)
};
[[nodiscard]] std::vector<PoolEntry> service_pool();

/// What one service-mix closed loop measured.
struct ServiceLoop {
  std::vector<double> latency;      ///< submit → future ready (inf = failed)
  std::vector<double> queue_wait;   ///< latency − reported setup − solve
  std::vector<double> miss_setup;   ///< reported setup of cache misses
  /// Reported solve seconds of single-RHS cache hits on the most popular
  /// operator, per format.
  std::array<std::vector<double>, kNumFormats> warm_solve;
  std::array<double, kNumFormats> iters_spread{};
  long requests = 0;
  long retried = 0;
  double window_s = 0.0;
  hpgmx::OperatorCacheStats cache;
};

/// Runs the service-mix closed loop for `seconds`: one generator thread
/// keeps four requests in flight. With `spans`, each request is recorded as
/// a span (submit → ready) whose id is the request number.
ServiceLoop run_service_loop(const RunArgs& args, double seconds,
                             Report& report, SpanRecorder* spans);

/// Untraced end-to-end runs.
int run_solver_workload(const RunArgs& args, Report& report);
int run_service_workload(const RunArgs& args, Report& report);
/// Traced per-layer run (all workloads).
int run_traced(const RunArgs& args, Report& report);

}  // namespace hpgbench
