// Precision sweep: GMRES-IR with inner storage in fp32, bf16, and fp16 in
// one invocation — the sub-32-bit territory the paper's memory-wall thesis
// points at (speed is bought by shrinking bytes-per-value) — plus a
// progressive-precision *schedule* sweep, where each multigrid level keeps
// its own format (fp32 fine level, 16-bit coarse levels).
//
// For every uniform format the exhibit reports the modeled SpMV bytes/row
// (strictly decreasing from fp32 to the 16-bit formats), the validation
// penalty n_d/n_ir that charges any convergence loss back against the
// throughput, and the resulting penalized GFLOP/s next to the all-double
// baseline. For every schedule it reports the modeled SpMV + V-cycle
// bytes per fine row from the per-level traffic model — the progressive
// schedules must land strictly below uniform fp32 while the outer solve
// still reaches the 1e-9 double target.
//
//   $ ./exp_precision_sweep [--json]
//
// --json emits one machine-readable report object on stdout (the BENCH_*
// perf-trajectory format) instead of the human table.
// HPGMX_PRECISION_SCHEDULE adds one extra user-chosen schedule to the sweep.
#include <string>
#include <vector>

#include "exhibit_common.hpp"
#include "precision/precision.hpp"

namespace {

using namespace hpgmx;

struct FormatRow {
  Precision precision = Precision::Fp32;
  std::size_t bytes_per_value = 0;
  double spmv_bytes_per_row = 0;
  ValidationResult validation;
  PhaseResult phase;

  [[nodiscard]] double penalized_gflops() const {
    return phase.raw_gflops * validation.penalty();
  }
};

struct ScheduleRow {
  PrecisionSchedule schedule;
  double spmv_mg_bytes_per_row = 0;  ///< modeled SpMV + V-cycle, per fine row
  ValidationResult validation;
  PhaseResult phase;

  [[nodiscard]] double penalized_gflops() const {
    return phase.raw_gflops * validation.penalty();
  }
};

void print_json(const bench::ExhibitConfig& cfg, const PhaseResult& dbl,
                const std::vector<FormatRow>& rows,
                const std::vector<ScheduleRow>& schedules) {
  std::printf("{\n");
  std::printf("  \"exhibit\": \"precision_sweep\",\n");
  std::printf("  \"ranks\": %d,\n", cfg.ranks);
  std::printf("  \"local_grid\": [%d, %d, %d],\n", cfg.params.nx,
              cfg.params.ny, cfg.params.nz);
  std::printf("  \"double_gflops\": %.6g,\n", dbl.raw_gflops);
  std::printf("  \"formats\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FormatRow& r = rows[i];
    std::printf("    {\"name\": \"%s\", \"bytes_per_value\": %zu, "
                "\"spmv_bytes_per_row\": %.6g, \"n_d\": %d, \"n_ir\": %d, "
                "\"penalty\": %.6g, \"ir_converged\": %s, "
                "\"raw_gflops\": %.6g, \"penalized_gflops\": %.6g, "
                "\"speedup_vs_double\": %.6g}%s\n",
                std::string(precision_name(r.precision)).c_str(),
                r.bytes_per_value, r.spmv_bytes_per_row, r.validation.n_d,
                r.validation.n_ir, r.validation.penalty(),
                r.validation.ir_converged ? "true" : "false",
                r.phase.raw_gflops, r.penalized_gflops(),
                dbl.raw_gflops > 0 ? r.penalized_gflops() / dbl.raw_gflops : 0.0,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"schedules\": [\n");
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const ScheduleRow& s = schedules[i];
    std::printf("    {\"schedule\": \"%s\", \"spmv_mg_bytes_per_row\": %.6g, "
                "\"n_d\": %d, \"n_ir\": %d, \"penalty\": %.6g, "
                "\"ir_converged\": %s, \"raw_gflops\": %.6g, "
                "\"penalized_gflops\": %.6g, \"speedup_vs_double\": %.6g}%s\n",
                s.schedule.to_string().c_str(), s.spmv_mg_bytes_per_row,
                s.validation.n_d, s.validation.n_ir, s.validation.penalty(),
                s.validation.ir_converged ? "true" : "false",
                s.phase.raw_gflops, s.penalized_gflops(),
                dbl.raw_gflops > 0 ? s.penalized_gflops() / dbl.raw_gflops
                                   : 0.0,
                i + 1 < schedules.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::has_flag(argc, argv, "--json");

  const auto cfg = bench::ExhibitConfig::from_env(/*default_n=*/16,
                                                  /*default_ranks=*/2,
                                                  /*default_seconds=*/0.3);
  if (!json) {
    bench::banner("exp_precision_sweep: GMRES-IR inner storage format sweep",
                  "fp32 is the paper's mxp column; bf16/fp16 halve its "
                  "bytes/value again (HPL-MxP-style sub-32-bit formats); "
                  "per-level schedules narrow only the coarse V-cycle levels");
  }

  // The modeled streaming cost per format (27-pt stencil): fine-level SpMV
  // for the uniform rows, SpMV + full V-cycle for the schedule rows.
  ProblemParams pp;
  pp.nx = cfg.params.nx;
  pp.ny = cfg.params.ny;
  pp.nz = cfg.params.nz;
  pp.gamma = cfg.params.gamma;
  const ProblemHierarchy hier =
      build_hierarchy(generate_problem(ProcessGrid::create(cfg.ranks), 0, pp),
                      cfg.params.mg_levels, cfg.params.coloring_seed);
  const std::int64_t nnz = hier.levels[0].a.nnz();
  const local_index_t nrows = hier.levels[0].a.num_rows;
  const int nlevels = static_cast<int>(hier.levels.size());
  const std::vector<MgLevelDims> dims = hierarchy_level_dims(hier);

  // Modeled SpMV + V-cycle bytes per fine row under a per-level schedule
  // (empty = uniform `fmt`).
  const auto spmv_mg_bytes_per_row = [&](const PrecisionSchedule& schedule,
                                         Precision fmt) {
    const std::vector<std::size_t> widths =
        schedule_value_bytes(schedule, nlevels, fmt);
    const double total =
        spmv_bytes(nnz, nrows, widths[0]) +
        mg_vcycle_bytes(std::span<const MgLevelDims>(dims.data(), dims.size()),
                        std::span<const std::size_t>(widths.data(),
                                                     widths.size()));
    return total / static_cast<double>(nrows);
  };

  BenchmarkDriver driver(cfg.params, cfg.ranks);
  const PhaseResult dbl = driver.run_phase(/*mixed=*/false);

  const Precision sweep[] = {Precision::Fp32, Precision::Bf16,
                             Precision::Fp16};
  std::vector<FormatRow> rows;
  for (const Precision p : sweep) {
    driver.set_inner_precision(p);
    FormatRow row;
    row.precision = p;
    row.bytes_per_value = precision_bytes(p);
    row.spmv_bytes_per_row =
        spmv_bytes(nnz, nrows, precision_bytes(p)) /
        static_cast<double>(nrows);
    row.validation = driver.run_validation(ValidationMode::Standard);
    row.phase = driver.run_phase(/*mixed=*/true);
    rows.push_back(row);
  }

  // --- progressive-precision schedule sweep -------------------------------
  // Uniform fp32 is the baseline the memory-wall argument must beat; the
  // progressive schedules narrow only the coarse levels, keeping the fine
  // level (and hence the Krylov basis) at fp32 accuracy.
  std::vector<PrecisionSchedule> schedules;
  schedules.push_back(*parse_precision_schedule("fp32"));
  schedules.push_back(*parse_precision_schedule("fp32,bf16,bf16"));
  schedules.push_back(*parse_precision_schedule("fp32,bf16,bf16,fp16"));
  // The exhibit's own progressive rows above must beat uniform fp32 on
  // modeled bytes (exit-code enforced); a user-supplied schedule rides
  // along for measurement only — it may legitimately widen formats.
  const std::size_t built_in_rows = schedules.size();
  const PrecisionSchedule env_schedule =
      schedule_from_env("HPGMX_PRECISION_SCHEDULE");
  if (!env_schedule.empty()) {
    bool already = false;
    for (const PrecisionSchedule& s : schedules) {
      already = already || s.to_string() == env_schedule.to_string();
    }
    if (!already) {
      schedules.push_back(env_schedule);
    }
  }

  std::vector<ScheduleRow> schedule_rows;
  for (const PrecisionSchedule& s : schedules) {
    ScheduleRow row;
    row.schedule = s;
    row.spmv_mg_bytes_per_row = spmv_mg_bytes_per_row(s, s.entry());
    if (s.to_string() == "fp32") {
      // Uniform fp32 is exactly the configuration the format sweep above
      // already measured — reuse its validation and timed phase.
      row.validation = rows[0].validation;
      row.phase = rows[0].phase;
    } else {
      driver.set_precision_schedule(s);
      row.validation = driver.run_validation(ValidationMode::Standard);
      row.phase = driver.run_phase(/*mixed=*/true);
    }
    schedule_rows.push_back(row);
  }

  if (json) {
    print_json(cfg, dbl, rows, schedule_rows);
  } else {
    std::printf("double baseline: %.2f GF/s (raw)\n\n", dbl.raw_gflops);
    std::printf("%-6s %9s %14s %6s %6s %8s %9s %10s %8s\n", "fmt", "B/value",
                "SpMV B/row", "n_d", "n_ir", "penalty", "raw GF/s",
                "penal GF/s", "vs fp64");
    for (const FormatRow& r : rows) {
      std::printf("%-6s %9zu %14.1f %6d %6d %8.3f %9.2f %10.2f %7.2fx\n",
                  std::string(precision_name(r.precision)).c_str(),
                  r.bytes_per_value, r.spmv_bytes_per_row, r.validation.n_d,
                  r.validation.n_ir, r.validation.penalty(),
                  r.phase.raw_gflops, r.penalized_gflops(),
                  dbl.raw_gflops > 0 ? r.penalized_gflops() / dbl.raw_gflops
                                     : 0.0);
    }
    std::printf("\nmodeled SpMV traffic: fp32 %.1f -> bf16 %.1f -> fp16 %.1f "
                "bytes/row (%s)\n",
                rows[0].spmv_bytes_per_row, rows[1].spmv_bytes_per_row,
                rows[2].spmv_bytes_per_row,
                rows[0].spmv_bytes_per_row > rows[1].spmv_bytes_per_row &&
                        rows[0].spmv_bytes_per_row > rows[2].spmv_bytes_per_row
                    ? "strictly decreasing, as the memory-wall argument "
                      "requires"
                    : "NOT decreasing — bytes model regression");
    std::printf("\nprogressive-precision schedules (%d MG levels; "
                "SpMV+V-cycle bytes per fine row):\n",
                nlevels);
    std::printf("%-22s %16s %6s %6s %8s %9s %10s\n", "schedule",
                "SpMV+MG B/row", "n_d", "n_ir", "penalty", "raw GF/s",
                "penal GF/s");
    for (const ScheduleRow& s : schedule_rows) {
      std::printf("%-22s %16.1f %6d %6d %8.3f %9.2f %10.2f\n",
                  s.schedule.to_string().c_str(), s.spmv_mg_bytes_per_row,
                  s.validation.n_d, s.validation.n_ir, s.validation.penalty(),
                  s.phase.raw_gflops, s.penalized_gflops());
    }
    std::printf("\npaper: Fig. 6 sweeps the validation penalty against "
                "throughput; HPL-MxP motivates the 16-bit formats; Carson's "
                "balancing argument motivates per-level schedules\n");
  }

  // The sweep is a smoke-tested exhibit: fail loudly if a 16-bit format
  // stopped converging, the bytes model stopped crediting narrower values,
  // or one of the exhibit's own progressive schedules stopped beating
  // uniform fp32 on modeled traffic while converging to the same 1e-9
  // outer target. The user's HPGMX_PRECISION_SCHEDULE row must converge
  // but is exempt from the bytes comparison (it may legitimately widen).
  bool ok = rows[0].spmv_bytes_per_row > rows[1].spmv_bytes_per_row &&
            rows[0].spmv_bytes_per_row > rows[2].spmv_bytes_per_row;
  for (const FormatRow& r : rows) {
    ok = ok && r.validation.ir_converged;
  }
  for (std::size_t i = 0; i < schedule_rows.size(); ++i) {
    const ScheduleRow& s = schedule_rows[i];
    ok = ok && s.validation.ir_converged;
    ok = ok && (i >= built_in_rows || s.schedule.uniform() ||
                s.spmv_mg_bytes_per_row <
                    schedule_rows[0].spmv_mg_bytes_per_row);
  }
  return ok ? 0 : 1;
}
