// hpgbench: the repository's end-to-end benchmark runner.
//
//   hpgbench --workload <cache-1x32|dram-4x48|service-mix> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 measures the end-to-end metrics (no tracing anywhere);
// --trace 1 is the separate traced run that produces the per-layer metrics
// and writes its spans as Chrome trace-event JSON to --trace-out. Human
// lines go first; the last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when a
// solve or a check is incorrect or the thread budget is exceeded.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hpgbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> time_setup(
    const std::vector<hpgmx::ProblemDescriptor>& descs) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (out.size() < 5 || seconds_since(start) < 1.0) {
    const Clock::time_point t0 = Clock::now();
    for (const hpgmx::ProblemDescriptor& d : descs) {
      (void)hpgmx::OperatorCache::build_entry(d);
    }
    out.push_back(seconds_since(t0));
  }
  return out;
}

double warm_cache(hpgmx::SolverService& svc,
                  const hpgmx::ProblemDescriptor& desc) {
  const std::uint64_t misses_before = svc.cache_stats().misses;
  hpgmx::SolveRequest req;
  req.desc = desc;
  req.cancel = std::make_shared<hpgmx::CancelToken>();
  const std::shared_ptr<hpgmx::CancelToken> token = req.cancel;
  const Clock::time_point t0 = Clock::now();
  std::future<hpgmx::ServiceResult> fut = svc.submit(std::move(req));
  while (svc.cache_stats().misses == misses_before) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double build_s = seconds_since(t0);
  token->cancel();
  (void)fut.get();
  return build_s;
}

}  // namespace hpgbench

namespace {

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: hpgbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpgbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) {
          args.workload = &w;
        }
      }
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload == nullptr) {
    return usage("--workload must name a workload");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  const WorkloadSpec& w = *args.workload;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const long budget =
      static_cast<long>(w.ranks) * w.workers * static_cast<long>(omp_threads);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("why: %s\n", w.why);
  std::printf("nproc=%ld budget=ranks(%d)xworkers(%d)xomp(%d)=%ld "
              "OMP_NUM_THREADS=%s OMP_PROC_BIND=%s OMP_PLACES=%s build=%s\n",
              nproc, w.ranks, w.workers, omp_threads, budget,
              env_or("OMP_NUM_THREADS", "unset"),
              env_or("OMP_PROC_BIND", "unset"), env_or("OMP_PLACES", "unset"),
              HPGBENCH_BUILD_TYPE);
  if (omp_threads != w.omp_threads) {
    std::printf("refusing: OpenMP runs %d threads, workload %s needs %d\n",
                omp_threads, w.name, w.omp_threads);
    return 3;
  }
  if (budget > nproc) {
    std::printf("refusing: thread budget %ld exceeds nproc %ld\n", budget,
                nproc);
    return 3;
  }

  Report report;
  int rc = 0;
  try {
    if (args.trace) {
      rc = run_traced(args, report);
    } else if (std::strcmp(w.name, "service-mix") == 0) {
      rc = run_service_workload(args, report);
    } else {
      rc = run_solver_workload(args, report);
    }
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 4;
  }
  if (rc != 0) {
    return rc;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
