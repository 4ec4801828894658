// Silent-data-corruption tests: the fault-injection grammar and injector
// determinism (base/fault.hpp), the additive halo checksum, the SdcMonitor
// verdict lane, the end-to-end detect/rollback/recover path through the
// solver service (GMRES, GMRES-IR, CG; vec/values/halo targets), the
// detection-on-clean bit-identity contract across value formats and index
// widths, and the PR's cache satellites — build-cost-aware admission and
// control-aware build skips.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/fault.hpp"
#include "base/solve_status.hpp"
#include "service/solver_service.hpp"

namespace hpgmx {
namespace {

// ------------------------------------------------------------ fault grammar

TEST(FaultConfig, DisabledByDefaultAndForOffSpec) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_FALSE(FaultConfig::parse("").enabled());
  EXPECT_FALSE(FaultConfig::parse("off").enabled());
  EXPECT_EQ(FaultConfig{}.to_string(), "off");
}

TEST(FaultConfig, ParsesEveryKey) {
  const FaultConfig cfg =
      FaultConfig::parse("flip:0.5,target:halo,bit:3,iter:7,count:2,rank:1");
  EXPECT_TRUE(cfg.enabled());
  EXPECT_DOUBLE_EQ(cfg.flip_prob, 0.5);
  EXPECT_EQ(cfg.target, FaultTarget::Halo);
  EXPECT_EQ(cfg.bit, 3);
  EXPECT_EQ(cfg.iter, 7);
  EXPECT_EQ(cfg.max_flips, 2);
  EXPECT_EQ(cfg.rank, 1);
}

TEST(FaultConfig, ParsesEveryTarget) {
  EXPECT_EQ(FaultConfig::parse("flip:1,target:halo").target,
            FaultTarget::Halo);
  EXPECT_EQ(FaultConfig::parse("flip:1,target:vec").target, FaultTarget::Vec);
  EXPECT_EQ(FaultConfig::parse("flip:1,target:values").target,
            FaultTarget::Values);
  EXPECT_FALSE(FaultConfig::parse("flip:1,target:none").enabled());
}

TEST(FaultConfig, ToStringRoundTripsThroughParse) {
  FaultConfig cfg;
  cfg.flip_prob = 0.125;
  cfg.target = FaultTarget::Values;
  cfg.bit = 9;
  cfg.iter = 4;
  cfg.max_flips = 3;
  cfg.rank = 2;
  const FaultConfig back = FaultConfig::parse(cfg.to_string());
  EXPECT_DOUBLE_EQ(back.flip_prob, cfg.flip_prob);
  EXPECT_EQ(back.target, cfg.target);
  EXPECT_EQ(back.bit, cfg.bit);
  EXPECT_EQ(back.iter, cfg.iter);
  EXPECT_EQ(back.max_flips, cfg.max_flips);
  EXPECT_EQ(back.rank, cfg.rank);
}

TEST(FaultConfig, RejectsMalformedSpecsWithStructuredErrors) {
  EXPECT_THROW((void)FaultConfig::parse("flip"), Error);         // no colon
  EXPECT_THROW((void)FaultConfig::parse("flip:abc"), Error);     // bad value
  EXPECT_THROW((void)FaultConfig::parse("flip:1.5"), Error);     // p > 1
  EXPECT_THROW((void)FaultConfig::parse("flip:-0.1"), Error);    // p < 0
  EXPECT_THROW((void)FaultConfig::parse("flip:1,target:cpu"), Error);
  EXPECT_THROW((void)FaultConfig::parse("flip:1,bit:-2"), Error);
  EXPECT_THROW((void)FaultConfig::parse("flip:1,count:-1"), Error);
  EXPECT_THROW((void)FaultConfig::parse("frobnicate:1"), Error);  // unknown
}

// -------------------------------------------------------- additive checksum

TEST(AdditiveChecksum, EverySingleBitFlipIsCaughtForDoubles) {
  // Message layout on the wire: payload followed by its checksum. Any
  // single-bit flip — payload or checksum word — must break verification.
  std::vector<double> msg = {1.0, -2.5, 3.25e-9, 0.0};
  msg.push_back(additive_checksum(msg.data(), msg.size()));
  const std::size_t payload = msg.size() - 1;
  for (std::size_t w = 0; w < msg.size(); ++w) {
    for (int b = 0; b < 64; ++b) {
      std::uint64_t bits = std::bit_cast<std::uint64_t>(msg[w]);
      bits ^= std::uint64_t{1} << b;
      msg[w] = std::bit_cast<double>(bits);
      const double computed = additive_checksum(msg.data(), payload);
      EXPECT_NE(std::bit_cast<std::uint64_t>(computed),
                std::bit_cast<std::uint64_t>(msg[payload]))
          << "word " << w << " bit " << b;
      bits ^= std::uint64_t{1} << b;  // restore
      msg[w] = std::bit_cast<double>(bits);
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                additive_checksum(msg.data(), payload)),
            std::bit_cast<std::uint64_t>(msg[payload]));
}

TEST(AdditiveChecksum, EverySingleBitFlipIsCaughtFor16BitWords) {
  std::vector<std::uint16_t> msg = {0x3F80, 0xC1D0, 0x0001};
  msg.push_back(additive_checksum(msg.data(), msg.size()));
  const std::size_t payload = msg.size() - 1;
  for (std::size_t w = 0; w < msg.size(); ++w) {
    for (int b = 0; b < 16; ++b) {
      msg[w] = static_cast<std::uint16_t>(msg[w] ^ (1u << b));
      EXPECT_NE(additive_checksum(msg.data(), payload), msg[payload])
          << "word " << w << " bit " << b;
      msg[w] = static_cast<std::uint16_t>(msg[w] ^ (1u << b));
    }
  }
}

// ------------------------------------------------------------ fault injector

FaultConfig vec_flip_config() {
  FaultConfig cfg = FaultConfig::parse("flip:1,target:vec");
  return cfg;
}

TEST(FaultInjector, ArmedRespectsTargetRankAndBudget) {
  FaultConfig cfg = vec_flip_config();
  cfg.rank = 1;
  cfg.max_flips = 1;
  FaultInjector wrong_rank(cfg, 0);
  EXPECT_FALSE(wrong_rank.armed(FaultTarget::Vec));

  FaultInjector inj(cfg, 1);
  EXPECT_TRUE(inj.armed(FaultTarget::Vec));
  EXPECT_FALSE(inj.armed(FaultTarget::Halo));  // target mismatch

  std::vector<double> buf(8, 1.0);
  EXPECT_TRUE(inj.maybe_flip(FaultTarget::Vec,
                             std::as_writable_bytes(std::span<double>(buf)),
                             sizeof(double)));
  EXPECT_FALSE(inj.armed(FaultTarget::Vec));  // budget spent
  EXPECT_EQ(inj.flips(), 1u);
}

TEST(FaultInjector, PinnedIterationGatesUnscriptedSites) {
  FaultConfig cfg = vec_flip_config();
  cfg.iter = 3;
  FaultInjector inj(cfg, 0);
  std::vector<double> buf(8, 1.0);
  const auto bytes = std::as_writable_bytes(std::span<double>(buf));
  // Unscripted sites (iteration -1, e.g. halo receives) never fire when the
  // config pins an iteration; the scripted site does.
  EXPECT_FALSE(inj.maybe_flip(FaultTarget::Vec, bytes, sizeof(double), -1));
  EXPECT_FALSE(inj.maybe_flip(FaultTarget::Vec, bytes, sizeof(double), 2));
  EXPECT_TRUE(inj.maybe_flip(FaultTarget::Vec, bytes, sizeof(double), 3));
}

TEST(FaultInjector, CountCapsTotalFlips) {
  FaultConfig cfg = vec_flip_config();
  cfg.max_flips = 2;
  FaultInjector inj(cfg, 0);
  std::vector<double> buf(16, 1.0);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    fired += inj.maybe_flip(FaultTarget::Vec,
                            std::as_writable_bytes(std::span<double>(buf)),
                            sizeof(double), i)
                 ? 1
                 : 0;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(inj.flips(), 2u);
}

TEST(FaultInjector, PinnedBitFlipsExactlyThatBit) {
  FaultConfig cfg = vec_flip_config();
  cfg.bit = 5;
  FaultInjector inj(cfg, 0);
  double v = 1.0;
  const std::uint64_t before = std::bit_cast<std::uint64_t>(v);
  ASSERT_TRUE(inj.maybe_flip(
      FaultTarget::Vec,
      std::as_writable_bytes(std::span<double>(&v, 1)), sizeof(double)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v) ^ before, std::uint64_t{1} << 5);
}

TEST(FaultInjector, SameSeedSameRankProducesIdenticalFlips) {
  FaultConfig cfg = vec_flip_config();
  cfg.flip_prob = 0.5;
  FaultInjector a(cfg, 3);
  FaultInjector b(cfg, 3);
  std::vector<double> buf_a(32, 1.5);
  std::vector<double> buf_b(32, 1.5);
  for (int i = 0; i < 20; ++i) {
    const bool fa =
        a.maybe_flip(FaultTarget::Vec,
                     std::as_writable_bytes(std::span<double>(buf_a)),
                     sizeof(double), i);
    const bool fb =
        b.maybe_flip(FaultTarget::Vec,
                     std::as_writable_bytes(std::span<double>(buf_b)),
                     sizeof(double), i);
    EXPECT_EQ(fa, fb) << "opportunity " << i;
  }
  EXPECT_EQ(a.flips(), b.flips());
  EXPECT_EQ(a.draws(), b.draws());
  for (std::size_t i = 0; i < buf_a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(buf_a[i]),
              std::bit_cast<std::uint64_t>(buf_b[i]))
        << "element " << i;
  }
}

TEST(FaultInjector, MaybeDrawConsumesTheStreamLikeMaybeFlip) {
  // vec and values schedules must be interchangeable under one seed: a
  // fired maybe_draw consumes the same number of draws as a fired
  // maybe_flip with a drawn bit.
  FaultConfig cfg = FaultConfig::parse("flip:1,target:values");
  FaultInjector inj(cfg, 0);
  std::uint64_t value_draw = 0;
  std::uint64_t bit_draw = 0;
  ASSERT_TRUE(inj.maybe_draw(FaultTarget::Values, 0, &value_draw, &bit_draw));
  EXPECT_EQ(inj.draws(), 3u);  // fire decision + element + bit
  EXPECT_EQ(inj.flips(), 1u);

  FaultInjector flip_side(vec_flip_config(), 0);
  std::vector<double> buf(8, 1.0);
  ASSERT_TRUE(flip_side.maybe_flip(
      FaultTarget::Vec, std::as_writable_bytes(std::span<double>(buf)),
      sizeof(double), 0));
  EXPECT_EQ(flip_side.draws(), 3u);
}

// ------------------------------------------------------------ verdict lane

TEST(SdcMonitor, LaneEncodesPendingFlagAndDecodeIsAnyRank) {
  SdcMonitor m;
  EXPECT_EQ(m.lane(), 0.0);
  EXPECT_FALSE(SdcMonitor::decode(0.0));
  m.flag_checksum();
  EXPECT_EQ(m.lane(), 1.0);
  EXPECT_TRUE(SdcMonitor::decode(1.0));
  EXPECT_TRUE(SdcMonitor::decode(4.0));  // every rank flagged
  m.clear();
  EXPECT_EQ(m.lane(), 0.0);
  EXPECT_EQ(m.checksum_failures(), 1u);  // cumulative count survives clear
}

TEST(SdcPolicy, DefaultsAreOffWithDocumentedCadence) {
  const SdcPolicy p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.audit_interval, 8);
  EXPECT_EQ(p.checkpoint_interval, 4);
  EXPECT_EQ(p.max_recoveries, 3);
}

TEST(SdcPolicy, GrowthThresholdIsFormatAware) {
  SdcPolicy p;
  p.audit_growth = 100.0;
  EXPECT_DOUBLE_EQ(sdc_growth_threshold(p, 2), 1600.0);  // bf16/fp16
  EXPECT_DOUBLE_EQ(sdc_growth_threshold(p, 4), 100.0);   // fp32
  EXPECT_DOUBLE_EQ(sdc_growth_threshold(p, 8), 100.0);   // fp64
}

TEST(SolveStatusTaxonomy, CorruptedHasAStableName) {
  EXPECT_EQ(solve_status_name(SolveStatus::Corrupted), "corrupted");
}

// --------------------------------------------------------------- end to end

/// Observable fingerprint equality: the solves were bitwise identical
/// (iteration counts record every reduction decision and the residuals are
/// the reduced doubles themselves).
bool bit_identical(const ServiceResult& a, const ServiceResult& b) {
  if (a.status != b.status || a.recoveries != b.recoveries ||
      a.rhs.size() != b.rhs.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.rhs.size(); ++j) {
    if (a.rhs[j].iterations != b.rhs[j].iterations ||
        a.rhs[j].recoveries != b.rhs[j].recoveries ||
        a.rhs[j].relative_residual != b.rhs[j].relative_residual) {
      return false;
    }
  }
  return a.realized_precisions == b.realized_precisions;
}

/// The exhibit scenario (bench/exp_sdc.cpp): bf16 GMRES-IR on the 16³
/// Poisson problem, outer tolerance 1e-9.
ProblemDescriptor ir_descriptor() {
  ProblemDescriptor d;
  d.nx = d.ny = d.nz = 16;
  d.mg_levels = 4;
  d.solver = SolverKind::GmresIr;
  d.inner_precision = Precision::Bf16;
  d.tol = 1e-9;
  d.max_iters = 500;
  return d;
}

/// The scripted detectable flip: a high exponent bit of the outer iterate
/// at cycle 3 on rank 0 — by then the best-residual baseline is tight, so
/// the growth audit must flag the corrupted residual.
FaultConfig scripted_ir_flip() {
  return FaultConfig::parse("flip:1,target:vec,bit:57,iter:3,count:1,rank:0");
}

ServiceResult run_service(const ProblemDescriptor& d, const FaultConfig& fault,
                          bool detect, int max_recoveries = 3) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.enabled = false;  // compare pure solves, no promotion ladder
  cfg.fault = fault;
  cfg.sdc.detect = detect;
  cfg.sdc.max_recoveries = max_recoveries;
  SolverService service(cfg);
  SolveRequest req;
  req.desc = d;
  return service.solve_now(req);
}

TEST(SdcEndToEnd, InjectedFlipIsDetectedAndRecovered) {
  const ServiceResult r =
      run_service(ir_descriptor(), scripted_ir_flip(), /*detect=*/true);
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_GE(r.recoveries, 1);
  ASSERT_EQ(r.rhs.size(), 1u);
  EXPECT_LE(r.rhs[0].relative_residual, 1e-9);
  EXPECT_GE(r.rhs[0].recoveries, 1);
}

TEST(SdcEndToEnd, RecoveredRunsAreSeedReproducible) {
  // Flip sites, detection cycles, and the recovered solution are a pure
  // function of the seed: two fresh services, same config, bit-identical
  // results. Honors an ambient HPGMX_FAULT so the sanitizer lanes can run
  // this determinism contract under arbitrary injection specs.
  FaultConfig fault = FaultConfig::from_env();
  if (!fault.enabled()) {
    fault = scripted_ir_flip();
  }
  const ServiceResult a = run_service(ir_descriptor(), fault, true);
  const ServiceResult b = run_service(ir_descriptor(), fault, true);
  EXPECT_TRUE(bit_identical(a, b));
}

TEST(SdcEndToEnd, ExhaustedRecoveryBudgetReportsCorrupted) {
  // Budget 0: the first detected corruption exceeds the rollback budget and
  // the request ends corrupted — and corrupted is never retried, so exactly
  // one attempt is recorded even with the retry policy enabled.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.fault = scripted_ir_flip();
  cfg.sdc.detect = true;
  cfg.sdc.max_recoveries = 0;
  ASSERT_TRUE(cfg.retry.enabled);
  SolverService service(cfg);
  SolveRequest req;
  req.desc = ir_descriptor();
  const ServiceResult r = service.solve_now(req);
  EXPECT_EQ(r.status, SolveStatus::Corrupted);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].status, SolveStatus::Corrupted);
}

TEST(SdcEndToEnd, CgRecurrenceAuditCatchesIterateFlip) {
  // CG detects through the recurrence-vs-true-residual drift audit: corrupt
  // the iterate (bit 62 turns a ~0 entry into 2.0), audit every 2
  // iterations, and the drift must flag, roll back, and still converge.
  ProblemDescriptor d;
  d.nx = d.ny = d.nz = 8;
  d.mg_levels = 3;
  d.solver = SolverKind::Cg;
  d.tol = 1e-9;
  d.max_iters = 2000;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.enabled = false;
  cfg.fault = FaultConfig::parse("flip:1,target:vec,bit:62,count:1");
  cfg.sdc.detect = true;
  cfg.sdc.audit_interval = 2;
  SolverService service(cfg);
  SolveRequest req;
  req.desc = d;
  const ServiceResult r = service.solve_now(req);
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_GE(r.recoveries, 1);
  ASSERT_EQ(r.rhs.size(), 1u);
  EXPECT_LE(r.rhs[0].relative_residual, 1e-9);
}

TEST(SdcEndToEnd, HaloChecksumCatchesFlipOnFourRanks) {
  // A flipped halo payload byte on one of four ranks: the receive-side
  // additive checksum flags that rank's monitor, the verdict rides the next
  // packed reduction to every rank, and the solve rolls back and recovers.
  ProblemDescriptor d;
  d.nx = d.ny = d.nz = 8;
  d.ranks = 4;
  d.mg_levels = 3;
  d.solver = SolverKind::Gmres;
  d.tol = 1e-9;
  d.max_iters = 2000;
  const FaultConfig fault =
      FaultConfig::parse("flip:1,target:halo,count:1,rank:2");
  const ServiceResult r = run_service(d, fault, /*detect=*/true);
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_GE(r.recoveries, 1);
}

TEST(SdcEndToEnd, ValuesFaultIsSeedDeterministic) {
  // Operator-value corruption draws its element/bit from the same seeded
  // stream: two fresh runs are bit-identical, and recovery (redemote from
  // the double master) or benign perturbation both still converge.
  ProblemDescriptor d = ir_descriptor();
  d.nx = d.ny = d.nz = 8;
  d.mg_levels = 3;
  const FaultConfig fault =
      FaultConfig::parse("flip:1,target:values,count:1,rank:0");
  const ServiceResult a = run_service(d, fault, /*detect=*/true);
  const ServiceResult b = run_service(d, fault, /*detect=*/true);
  EXPECT_TRUE(bit_identical(a, b));
  EXPECT_EQ(a.status, SolveStatus::Converged);
}

TEST(SdcEndToEnd, DetectionOnCleanRunsAreBitIdenticalAcrossFormats) {
  // The detection machinery (checksum lanes on halo messages, verdict lanes
  // on the packed reductions, checkpoint copies) must not perturb a healthy
  // solve in any value format.
  for (const Precision prec : {Precision::Fp64, Precision::Fp32,
                               Precision::Bf16, Precision::Fp16}) {
    ProblemDescriptor d = ir_descriptor();
    d.nx = d.ny = d.nz = 8;
    d.mg_levels = 3;
    d.inner_precision = prec;
    const ServiceResult off = run_service(d, FaultConfig{}, /*detect=*/false);
    const ServiceResult on = run_service(d, FaultConfig{}, /*detect=*/true);
    EXPECT_EQ(on.recoveries, 0) << std::string(precision_name(prec));
    EXPECT_TRUE(bit_identical(on, off)) << std::string(precision_name(prec));
  }
}

// ------------------------------------------------- cache-admission satellite

ProblemDescriptor cache_descriptor(local_index_t n, int mg) {
  ProblemDescriptor d;
  d.nx = d.ny = d.nz = n;
  d.mg_levels = mg;
  return d;
}

TEST(CacheAdmission, CheapCandidateIsRejectedWhenResidentsAreExpensive) {
  // Capacity-1 cache holding an expensive build; a cheap candidate with a
  // tiny admission multiple finds no victim it is allowed to evict, so it
  // is served uncached and the resident survives.
  OperatorCache cache(1, /*admit_multiple=*/1e-6);
  const ProblemDescriptor big = cache_descriptor(20, 4);
  const ProblemDescriptor small = cache_descriptor(4, 2);
  bool hit = true;
  ASSERT_NE(cache.get_or_build(big, &hit), nullptr);
  const auto uncached = cache.get_or_build(small, &hit);
  ASSERT_NE(uncached, nullptr);  // still served, just not admitted
  EXPECT_FALSE(hit);
  const OperatorCacheStats s = cache.stats();
  EXPECT_EQ(s.admission_rejects, 1u);
  EXPECT_EQ(s.eviction_skips, 1u);  // the resident was scanned and spared
  EXPECT_EQ(s.entries, 1u);
  (void)cache.get_or_build(big, &hit);
  EXPECT_TRUE(hit);  // the expensive entry was never evicted
  (void)cache.get_or_build(small, &hit);
  EXPECT_FALSE(hit);  // the cheap one was never cached
}

TEST(CacheAdmission, ExpensiveCandidateStillEvictsCheapVictim) {
  // A generous multiple keeps plain LRU behavior: the candidate admits by
  // evicting the cheap resident.
  OperatorCache cache(1, /*admit_multiple=*/1e12);
  const ProblemDescriptor big = cache_descriptor(20, 4);
  const ProblemDescriptor small = cache_descriptor(4, 2);
  bool hit = true;
  ASSERT_NE(cache.get_or_build(small, &hit), nullptr);
  ASSERT_NE(cache.get_or_build(big, &hit), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().admission_rejects, 0u);
  (void)cache.get_or_build(big, &hit);
  EXPECT_TRUE(hit);  // the expensive candidate was admitted
}

// --------------------------------------------- control-aware build satellite

TEST(CacheControl, TrippedControlSkipsTheBuildAndCountsIt) {
  OperatorCache cache(4);
  const ProblemDescriptor d = cache_descriptor(8, 3);
  SolveControl control;
  control.deadline = Deadline::after(-1.0);
  bool hit = true;
  EXPECT_EQ(cache.get_or_build(d, &hit, &control), nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().cancelled_builds, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  CancelToken token;
  token.cancel();
  SolveControl cancelled;
  cancelled.cancel = &token;
  EXPECT_EQ(cache.get_or_build(d, &hit, &cancelled), nullptr);
  EXPECT_EQ(cache.stats().cancelled_builds, 2u);
}

TEST(CacheControl, HitIsServedEvenWhenTripped) {
  OperatorCache cache(4);
  const ProblemDescriptor d = cache_descriptor(8, 3);
  bool hit = false;
  ASSERT_NE(cache.get_or_build(d, &hit), nullptr);
  SolveControl control;
  control.deadline = Deadline::after(-1.0);
  EXPECT_NE(cache.get_or_build(d, &hit, &control), nullptr);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().cancelled_builds, 0u);
}

TEST(CacheControl, ServiceSkipsBuildForPreCancelledRequest) {
  // The service builds its SolveControl before touching the cache: a
  // pre-cancelled request never pays for hierarchy construction, and the
  // skip is observable in the cache stats.
  ServiceConfig cfg;
  cfg.workers = 1;
  SolverService service(cfg);
  SolveRequest req;
  req.desc = cache_descriptor(8, 3);
  req.cancel = std::make_shared<CancelToken>();
  req.cancel->cancel();
  const ServiceResult r = service.solve_now(req);
  EXPECT_EQ(r.status, SolveStatus::Cancelled);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].iterations, 0);
  EXPECT_EQ(service.cache_stats().cancelled_builds, 1u);
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

}  // namespace
}  // namespace hpgmx
