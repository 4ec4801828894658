#include "service/solver_service.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "base/timer.hpp"
#include "blas/multivector.hpp"
#include "comm/comm_world.hpp"
#include "core/adaptive_ir.hpp"
#include "core/cg.hpp"
#include "core/gmres_ir.hpp"
#include "core/multigrid.hpp"
#include "precision/scale_guard.hpp"

namespace hpgmx {

namespace {

/// Promotion ladder the RetryPolicy climbs (matches AdaptiveConfig's
/// rung_order): fp16 → bf16 → fp32 → fp64; fp64 has nowhere left to go.
std::optional<Precision> next_wider(Precision p) {
  switch (p) {
    case Precision::Fp16:
      return Precision::Bf16;
    case Precision::Bf16:
      return Precision::Fp32;
    case Precision::Fp32:
      return Precision::Fp64;
    case Precision::Fp64:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Severity for worst-status aggregation (higher = worse).
int status_severity(SolveStatus s) {
  switch (s) {
    case SolveStatus::Converged:
      return 0;
    case SolveStatus::Stagnated:
      return 1;
    case SolveStatus::NonFinite:
      return 2;
    case SolveStatus::Corrupted:
      return 3;
    case SolveStatus::DeadlineExceeded:
      return 4;
    case SolveStatus::Cancelled:
      return 5;
    case SolveStatus::Rejected:
      return 6;
  }
  return 6;
}

}  // namespace

SolveStatus aggregate_status(const std::vector<SolveResult>& rhs) {
  if (rhs.empty()) {
    return SolveStatus::Rejected;
  }
  SolveStatus worst = SolveStatus::Converged;
  for (const SolveResult& r : rhs) {
    if (status_severity(r.status) > status_severity(worst)) {
      worst = r.status;
    }
  }
  return worst;
}

RetryPolicy RetryPolicy::from_env() {
  RetryPolicy p;
  p.enabled = env_int_or("HPGMX_RETRY", p.enabled ? 1 : 0) != 0;
  p.max_retries = static_cast<int>(
      env_int_or("HPGMX_RETRY_MAX", p.max_retries));
  HPGMX_CHECK_MSG(p.max_retries >= 0, "HPGMX_RETRY_MAX must be >= 0");
  return p;
}

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  cfg.workers = static_cast<int>(env_int_or("HPGMX_SERVICE_WORKERS",
                                            cfg.workers));
  HPGMX_CHECK_MSG(cfg.workers >= 1, "HPGMX_SERVICE_WORKERS must be >= 1");
  cfg.queue_capacity = static_cast<std::size_t>(env_int_or(
      "HPGMX_SERVICE_QUEUE", static_cast<std::int64_t>(cfg.queue_capacity)));
  HPGMX_CHECK_MSG(cfg.queue_capacity >= 1, "HPGMX_SERVICE_QUEUE must be >= 1");
  cfg.cache_entries = static_cast<std::size_t>(env_int_or(
      "HPGMX_SERVICE_CACHE", static_cast<std::int64_t>(cfg.cache_entries)));
  HPGMX_CHECK_MSG(cfg.cache_entries >= 1, "HPGMX_SERVICE_CACHE must be >= 1");
  cfg.cache_admit = env_double_or("HPGMX_CACHE_ADMIT", cfg.cache_admit);
  HPGMX_CHECK_MSG(cfg.cache_admit >= 0.0, "HPGMX_CACHE_ADMIT must be >= 0");
  cfg.retry = RetryPolicy::from_env();
  cfg.chaos = ChaosConfig::from_env();
  cfg.fault = FaultConfig::from_env();
  cfg.sdc = SdcPolicy::from_env();
  return cfg;
}

SolverService::SolverService(ServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_entries, cfg.cache_admit) {
  HPGMX_CHECK(cfg_.workers >= 1 && cfg_.queue_capacity >= 1);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolverService::~SolverService() { shutdown(); }

std::future<ServiceResult> SolverService::rejected_future(
    const SolveRequest& req) {
  std::promise<ServiceResult> promise;
  ServiceResult res;
  res.descriptor_hash = req.desc.hash();
  res.status = SolveStatus::Rejected;
  promise.set_value(std::move(res));
  return promise.get_future();
}

std::future<ServiceResult> SolverService::submit(SolveRequest req) {
  if (req.num_rhs < 1) {
    // Structured rejection: the client gets a resolved ticket with status
    // rejected instead of a worker-side exception.
    return rejected_future(req);
  }
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] {
    return shutting_down_ || queue_.size() < cfg_.queue_capacity;
  });
  HPGMX_CHECK_MSG(!shutting_down_, "submit() on a shut-down SolverService");
  Item item;
  item.req = std::move(req);
  std::future<ServiceResult> ticket = item.promise.get_future();
  queue_.push_back(std::move(item));
  not_empty_.notify_one();
  return ticket;
}

std::optional<std::future<ServiceResult>> SolverService::try_submit(
    SolveRequest req, std::chrono::milliseconds timeout) {
  if (req.num_rhs < 1) {
    return rejected_future(req);
  }
  std::unique_lock<std::mutex> lock(mu_);
  const bool ready = not_full_.wait_for(lock, timeout, [&] {
    return shutting_down_ || queue_.size() < cfg_.queue_capacity;
  });
  if (!ready || shutting_down_) {
    return std::nullopt;  // timed out in backpressure, or shutting down
  }
  Item item;
  item.req = std::move(req);
  std::future<ServiceResult> ticket = item.promise.get_future();
  queue_.push_back(std::move(item));
  not_empty_.notify_one();
  return ticket;
}

void SolverService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  // Wake both worker threads (drain then exit) and any submitter blocked in
  // backpressure (observes shutting_down_ and throws / returns nullopt).
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  workers_.clear();
  // Workers drain the queue before exiting; if one ever died mid-loop,
  // resolve the leftovers as cancelled so no promise is abandoned.
  std::deque<Item> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
  }
  for (Item& item : leftovers) {
    ServiceResult res;
    res.descriptor_hash = item.req.desc.hash();
    res.status = SolveStatus::Cancelled;
    item.promise.set_value(std::move(res));
  }
}

std::size_t SolverService::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool SolverService::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutting_down_;
}

void SolverService::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down and fully drained
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      not_full_.notify_one();
    }
    try {
      item.promise.set_value(execute(item.req));
    } catch (...) {
      item.promise.set_exception(std::current_exception());
    }
  }
}

void SolverService::run_attempt(
    const ProblemDescriptor& d, const SolveRequest& req,
    const std::shared_ptr<const OperatorCache::Entry>& entry,
    const SolveControl& control, ServiceResult& out) {
  const BenchParams params = d.to_bench_params();
  SolverOptions opts;
  opts.restart = d.restart;
  opts.max_iters = d.max_iters;
  opts.tol = d.tol;
  opts.control = control;
  opts.sdc = cfg_.sdc;

  // Each request gets its own SPMD world: Self for one rank, in-process
  // threads otherwise — concurrent workers' worlds are fully independent.
  const std::unique_ptr<CommWorld> world = make_comm_world(
      d.ranks == 1 ? CommBackend::Self : CommBackend::Thread, d.ranks);
  std::vector<std::vector<SolveResult>> slot_results(
      static_cast<std::size_t>(world->local_count()));
  std::vector<std::vector<Precision>> slot_realized(
      static_cast<std::size_t>(world->local_count()));
  WallTimer solve_timer;
  world->execute([&](Comm& world_comm) {
    // Per-rank SDC harness: a deterministic value-fault injector (when
    // HPGMX_FAULT is armed) and a checksum/audit monitor (when HPGMX_AUDIT
    // is on). Halo faults are delivered through the chaos layer — it owns
    // the point-to-point receive path — so an armed halo target forces the
    // wrapper even with chaos itself off.
    std::unique_ptr<FaultInjector> injector;
    if (cfg_.fault.enabled()) {
      injector = std::make_unique<FaultInjector>(cfg_.fault,
                                                 world_comm.rank());
    }
    std::unique_ptr<ChaosComm> chaotic;
    if (cfg_.chaos.enabled() ||
        (injector != nullptr && injector->armed(FaultTarget::Halo))) {
      chaotic =
          std::make_unique<ChaosComm>(world_comm, cfg_.chaos, injector.get());
    }
    Comm& comm = chaotic != nullptr ? *chaotic : world_comm;
    SdcMonitor sdc_monitor;
    SdcMonitor* monitor = opts.sdc.detect ? &sdc_monitor : nullptr;
    const auto slot = static_cast<std::size_t>(world->slot_of(comm.rank()));
    const ProblemHierarchy& h =
        entry->hierarchy[static_cast<std::size_t>(comm.rank())];
    const AlignedVector<double>& b = h.levels[0].b;
    MultiVector<double> rhs(h.levels[0].a.num_rows, req.num_rhs);
    MultiVector<double> x(h.levels[0].a.num_rows, req.num_rhs);
    for (int j = 0; j < req.num_rhs; ++j) {
      set_column_scaled(rhs, j, std::span<const double>(b.data(), b.size()),
                        1.0 + req.rhs_spread * j);
    }
    const std::span<const double> level_max(entry->level_max.data(),
                                            entry->level_max.size());
    std::vector<SolveResult> res;
    switch (d.solver) {
      case SolverKind::Gmres: {
        Multigrid<double> mg(h, params);
        Gmres<double> solver(&mg.level_op(0), &mg, opts);
        if (monitor != nullptr) {
          solver.set_sdc(monitor);
        }
        solver.set_fault_injector(injector.get());
        res = solver.solve_many(comm, rhs, x);
        break;
      }
      case SolverKind::Cg: {
        HPGMX_CHECK_MSG(d.gamma == 0.0,
                        "cg requires the symmetric (gamma=0) operator");
        SymmetricMultigrid<double> mg(h, params);
        ConjugateGradient<double> solver(&mg.level_op(0), &mg, opts);
        if (monitor != nullptr) {
          solver.set_sdc(monitor);
        }
        solver.set_fault_injector(injector.get());
        res = solver.solve_many(comm, rhs, x);
        break;
      }
      case SolverKind::GmresIr: {
        // AdaptiveGmresIr builds the exact static stack this case used to
        // build inline when the controller is off (bit-identical iterates,
        // tests/test_adaptive.cpp asserts it) and climbs the precision
        // ladder when it is on. entry->level_max is already globally
        // reduced: no allreduce, and every rank's controller observes the
        // same rank-consistent sequence.
        AdaptiveGmresIr solver(h, params, opts, level_max);
        solver.set_sdc(monitor);
        solver.set_fault_injector(injector.get());
        res = solver.solve_many(comm, rhs, x);
        slot_realized[slot] = solver.controller().realized();
        break;
      }
    }
    slot_results[slot] = std::move(res);
  });
  out.solve_seconds += solve_timer.seconds();
  out.rhs = std::move(slot_results[0]);
  out.realized_precisions = std::move(slot_realized[0]);
  out.status = aggregate_status(out.rhs);

  AttemptRecord rec;
  rec.precision =
      d.solver == SolverKind::GmresIr ? d.inner_precision : Precision::Fp64;
  rec.status = out.status;
  for (const SolveResult& r : out.rhs) {
    rec.iterations += r.iterations;
    rec.recoveries += r.recoveries;
    rec.relative_residual =
        std::max(rec.relative_residual, r.relative_residual);
  }
  out.recoveries = rec.recoveries;  // of the served (last) attempt
  out.attempts.push_back(rec);
}

ServiceResult SolverService::execute(const SolveRequest& req) {
  ServiceResult out;
  out.descriptor_hash = req.desc.hash();
  if (req.num_rhs < 1) {
    out.status = SolveStatus::Rejected;  // structured, never a throw
    return out;
  }

  SolveControl control;
  control.cancel = req.cancel.get();
  control.deadline = req.deadline;

  WallTimer setup_timer;
  bool hit = false;
  const std::shared_ptr<const OperatorCache::Entry> entry =
      cache_.get_or_build(req.desc, &hit, &control);
  out.cache_hit = hit;
  out.setup_seconds = setup_timer.seconds();
  if (entry == nullptr) {
    // The deadline pre-expired or the token tripped before (or during) the
    // hierarchy build: skip the solve entirely, classified like a trip that
    // fired on the first reduction (cancellation outranks the deadline).
    // The attempt ledger still gets its zero-iteration record, so clients
    // observe the same shape a post-build trip produces.
    out.status = (req.cancel != nullptr && req.cancel->cancelled())
                     ? SolveStatus::Cancelled
                     : SolveStatus::DeadlineExceeded;
    AttemptRecord rec;
    rec.precision = req.desc.solver == SolverKind::GmresIr
                        ? req.desc.inner_precision
                        : Precision::Fp64;
    rec.status = out.status;
    out.attempts.push_back(rec);
    return out;
  }

  // Retry-with-promotion: the cached entry (per-rank double hierarchy +
  // globally reduced level maxima) is precision-independent, so a promoted
  // attempt reuses it directly — warm descriptor, cold iterate. The
  // deadline keeps ticking across attempts.
  ProblemDescriptor d = req.desc;
  for (int retry = 0;; ++retry) {
    run_attempt(d, req, entry, control, out);
    const bool recoverable = out.status == SolveStatus::NonFinite ||
                             out.status == SolveStatus::Stagnated;
    if (!cfg_.retry.enabled || retry >= cfg_.retry.max_retries ||
        !recoverable || d.solver != SolverKind::GmresIr ||
        d.adaptive.enabled) {
      break;
    }
    const std::optional<Precision> wider = next_wider(d.inner_precision);
    if (!wider.has_value()) {
      break;  // already at the top rung
    }
    d.inner_precision = *wider;
    // The retry runs the promoted format uniformly: a progressive schedule
    // tuned for the failed entry format would re-narrow the coarse levels.
    d.schedule = PrecisionSchedule{};
  }
  return out;
}

}  // namespace hpgmx
