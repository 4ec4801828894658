// service-mix: a SolverService closed loop. One generator thread keeps four
// requests in flight, dealing descriptors from a Zipf-skewed pool that is
// twice the size of the 8-entry operator cache, so hits, cold builds and
// evictions all happen during the timed window.
#include <algorithm>
#include <map>
#include <random>
#include <thread>

#include "common.hpp"
#include "spans.hpp"

namespace hpgbench {

namespace {

constexpr int kInFlight = 4;
constexpr int kDeck = 64;      ///< requests per shuffled deck
constexpr int kFourRhs = 16;   ///< of which carry num_rhs = 4 (25%)

/// One deck of requests: each pool entry appears in proportion to its
/// weight (largest-remainder rounding) and exactly kFourRhs requests carry
/// four right-hand sides; the seed only sets the order. Dealing whole decks
/// keeps the mix of a run the same across seeds, so the spread between
/// runs measures the system rather than the draw.
std::vector<std::pair<int, int>> deal_deck(const std::vector<PoolEntry>& pool,
                                           std::mt19937_64& rng) {
  double total = 0.0;
  for (const PoolEntry& e : pool) {
    total += e.weight;
  }
  std::vector<int> count(pool.size());
  std::vector<std::pair<double, int>> remainder;
  int dealt = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double share = pool[i].weight / total * kDeck;
    count[i] = static_cast<int>(share);
    dealt += count[i];
    remainder.emplace_back(share - count[i], static_cast<int>(i));
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (int k = 0; dealt < kDeck; ++k, ++dealt) {
    ++count[static_cast<std::size_t>(remainder[static_cast<std::size_t>(k)]
                                         .second)];
  }
  std::vector<int> entries;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    entries.insert(entries.end(), static_cast<std::size_t>(count[i]),
                   static_cast<int>(i));
  }
  std::vector<int> rhs(kDeck, 1);
  std::fill(rhs.begin(), rhs.begin() + kFourRhs, 4);
  std::shuffle(entries.begin(), entries.end(), rng);
  std::shuffle(rhs.begin(), rhs.end(), rng);
  std::vector<std::pair<int, int>> deck;
  for (int k = 0; k < kDeck; ++k) {
    deck.emplace_back(entries[static_cast<std::size_t>(k)],
                      rhs[static_cast<std::size_t>(k)]);
  }
  return deck;
}

}  // namespace

std::vector<PoolEntry> service_pool() {
  // Operators in popularity order: the k-th gets Zipf weight 1/k, split
  // evenly over the three formats. Grids are 16^3 except the least popular
  // operator's 24^3 (divisible by 2^(mg_levels-1)), so a run completes
  // about a thousand requests and the tail is not one heavy operator. The
  // fp16 GMRES-IR entry runs on a jump operator with contrast 1e6, where
  // fp16 overflows (non_finite) and the service retries one rung wider.
  struct Op {
    hpgmx::Scenario kind;
    int n;
  };
  const Op ops[] = {{hpgmx::Scenario::Poisson, 16},
                    {hpgmx::Scenario::ConvDiff, 16},
                    {hpgmx::Scenario::Aniso, 16},
                    {hpgmx::Scenario::Stretched, 16},
                    {hpgmx::Scenario::Jump, 24}};
  std::vector<PoolEntry> pool;
  for (int k = 0; k < 5; ++k) {
    for (int f = 0; f < kNumFormats; ++f) {
      hpgmx::ProblemDescriptor d;
      d.nx = d.ny = d.nz = ops[k].n;
      d.scenario.kind = ops[k].kind;
      d.gamma = ops[k].kind == hpgmx::Scenario::ConvDiff ? 0.5 : 0.0;
      d.solver = kFormats[f].kind;
      d.inner_precision = kFormats[f].inner;
      d.tol = kTol;
      pool.push_back({d, f, 1.0 / (k + 1) / kNumFormats});
    }
  }
  PoolEntry fp16 = pool.back();  // jump, bf16
  fp16.desc.nx = fp16.desc.ny = fp16.desc.nz = 16;
  fp16.desc.scenario.jump_ratio = 1e6;
  fp16.desc.inner_precision = hpgmx::Precision::Fp16;
  fp16.format = -1;
  fp16.weight = 0.05;
  pool.push_back(fp16);
  return pool;
}

ServiceLoop run_service_loop(const RunArgs& args, double seconds,
                             Report& report, SpanRecorder* spans) {
  const std::vector<PoolEntry> pool = service_pool();
  std::mt19937_64 rng(args.seed);
  std::vector<std::pair<int, int>> deck;

  struct Slot {
    bool active = false;
    std::future<hpgmx::ServiceResult> fut;
    Clock::time_point submitted;
    int span = -1;
    int entry = 0;
    long id = 0;
  };
  hpgmx::ServiceConfig cfg;
  cfg.workers = args.workload->workers;
  cfg.cache_entries = 8;
  hpgmx::SolverService svc(cfg);
  ServiceLoop out;
  std::map<int, std::pair<int, int>> iter_range;  // pool entry → min, max

  const Clock::time_point t0 = Clock::now();
  Clock::time_point last_ready = t0;
  long next_id = 0;
  auto submit = [&](Slot& s) {
    if (deck.empty()) {
      deck = deal_deck(pool, rng);
    }
    s.entry = deck.back().first;
    hpgmx::SolveRequest req;
    req.desc = pool[static_cast<std::size_t>(s.entry)].desc;
    req.num_rhs = deck.back().second;
    deck.pop_back();
    s.id = next_id++;
    s.submitted = Clock::now();
    if (spans != nullptr) {
      // The request's span is opened here and closed when its future is
      // ready; submit() is its child.
      s.span = spans->open("service.request", -1, s.id, 0);
      const ScopedSpan sub(*spans, "service.submit", s.span, s.id, 0);
      s.fut = svc.submit(std::move(req));
    } else {
      s.fut = svc.submit(std::move(req));
    }
    s.active = true;
  };
  std::array<Slot, kInFlight> slots;
  for (Slot& s : slots) {
    submit(s);
  }
  for (bool any = true; any;) {
    any = false;
    for (Slot& s : slots) {
      if (!s.active) {
        continue;
      }
      any = true;
      if (s.fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      const Clock::time_point ready = Clock::now();
      const hpgmx::ServiceResult r = s.fut.get();
      const double lat = std::chrono::duration<double>(ready - s.submitted)
                             .count();
      const PoolEntry& e = pool[static_cast<std::size_t>(s.entry)];
      const bool ok = service_ok(r);
      report.attempt(ok);
      ++out.requests;
      last_ready = ready;
      out.latency.push_back(ok ? lat
                               : std::numeric_limits<double>::infinity());
      out.queue_wait.push_back(lat - r.setup_seconds - r.solve_seconds);
      if (!r.cache_hit) {
        out.miss_setup.push_back(r.setup_seconds);
      }
      if (r.attempts.size() > 1) {
        ++out.retried;
      }
      if (ok && r.cache_hit && r.rhs.size() == 1 && s.entry < kNumFormats) {
        out.warm_solve[static_cast<std::size_t>(e.format)].push_back(
            r.solve_seconds);
      }
      for (const hpgmx::SolveResult& rhs : r.rhs) {
        const auto it = iter_range
                            .try_emplace(s.entry, std::make_pair(
                                                      rhs.iterations,
                                                      rhs.iterations))
                            .first;
        it->second.first = std::min(it->second.first, rhs.iterations);
        it->second.second = std::max(it->second.second, rhs.iterations);
      }
      if (spans != nullptr) {
        spans->close(s.span);
      }
      s.active = false;
      if (seconds_since(t0) < seconds) {
        submit(s);
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  out.window_s = std::chrono::duration<double>(last_ready - t0).count();
  out.cache = svc.cache_stats();
  for (const auto& [entry, range] : iter_range) {
    const int f = pool[static_cast<std::size_t>(entry)].format;
    if (f >= 0) {
      double& s = out.iters_spread[static_cast<std::size_t>(f)];
      s = std::max(s, static_cast<double>(range.second - range.first));
    }
  }
  return out;
}

int run_service_workload(const RunArgs& args, Report& report) {
  // Set-up: a cold build of every descriptor in the pool, timed from
  // outside through the cache's own build function.
  const std::vector<PoolEntry> pool = service_pool();
  std::vector<hpgmx::ProblemDescriptor> descs;
  for (const PoolEntry& e : pool) {
    descs.push_back(e.desc);
  }
  const std::vector<double> setup = time_setup(descs);

  const ServiceLoop loop = run_service_loop(args, args.seconds, report,
                                            nullptr);

  // The score runs on the most popular operator (Poisson) at the
  // workload's grid (24^3), fp32 inner: run_validation, then alternating phase pairs. Short phases on a
  // small grid read differently from one set of allocations to the next, so
  // the pairs are spread over three drivers.
  ScorePairs score;
  hpgmx::ValidationResult v;
  hpgmx::ProblemDescriptor scored = pool[1].desc;
  scored.nx = scored.ny = scored.nz = args.workload->n;
  for (int d = 0; d < 3; ++d) {
    hpgmx::BenchmarkDriver driver(ScorePairs::params(scored), 1);
    if (d == 0) {
      v = driver.run_validation(hpgmx::ValidationMode::Standard);
      report.attempt(v.d_converged && v.ir_converged);
    }
    for (int pair = 0; pair < 5; ++pair) {
      score.run_pair(driver, pair % 2 == 0);
    }
  }

  report.metric("setup_s", median(setup), "s",
                "cold build of all " + std::to_string(pool.size()) +
                    " pool descriptors: " + describe(setup));
  std::array<double, kNumFormats> med{};
  for (int f = 0; f < kNumFormats; ++f) {
    const auto& s = loop.warm_solve[static_cast<std::size_t>(f)];
    report.check(!s.empty(), std::string("no timed ") + kFormats[f].name +
                                 " cache hit on the most popular operator");
    med[static_cast<std::size_t>(f)] = median(s);
    char buf[64];
    std::snprintf(buf, sizeof(buf), " iters_spread=%g",
                  loop.iters_spread[static_cast<std::size_t>(f)]);
    report.metric(std::string("solve_s.") + kFormats[f].name,
                  med[static_cast<std::size_t>(f)], "s",
                  "reported solve seconds, 1-RHS cache hits on the most "
                  "popular operator: " +
                      describe(s) + buf);
  }
  report.metric("speedup.fp32", med[0] / med[1], "x",
                "solve_s.fp64 / solve_s.fp32");
  report.metric("speedup.bf16", med[0] / med[2], "x",
                "solve_s.fp64 / solve_s.bf16");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "poisson 24^3, median over %zu phase pairs; n_d=%d n_ir=%d "
                "penalty=%.4g",
                score.pairs.size(), v.n_d, v.n_ir, v.penalty());
  report.metric("hpgmxp_gflops", score.penalized_gflops(v), "GFLOP/s", buf);
  report.metric("hpgmxp_speedup", score.speedup(v), "x",
                "penalized mxp / double GFLOP/s, median over pairs");
  std::snprintf(buf, sizeof(buf),
                "%ld requests in %.3g s; hits=%llu misses=%llu evictions=%llu "
                "retried=%ld",
                loop.requests, loop.window_s,
                static_cast<unsigned long long>(loop.cache.hits),
                static_cast<unsigned long long>(loop.cache.misses),
                static_cast<unsigned long long>(loop.cache.evictions),
                loop.retried);
  report.metric("solves_per_s",
                static_cast<double>(loop.requests) / loop.window_s, "1/s",
                buf);
  report.metric("latency_p50_s", quantile(loop.latency, 0.5), "s",
                "submit to future ready: " + describe(loop.latency));
  report.metric("latency_p90_s", quantile(loop.latency, 0.9), "s", "");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "");
  return 0;
}

}  // namespace hpgbench
