// Geometric multigrid preconditioner (paper §2–§3): one V-cycle, forward
// Gauss–Seidel smoothing (forward+backward in the symmetric mode CG needs),
// one smoothing step before restriction, after prolongation and on the
// coarsest level, injection restriction (fused with the residual on the
// optimized path), injection-transpose prolongation, re-discretized coarse
// operators, four levels by default.
//
// The precision-independent hierarchy (problems + injection maps +
// orderings) is built once; DistOperator<T> instantiations for double and
// float share it, exactly as the paper's GMRES-IR keeps a low-precision
// copy of the system matrix alongside the double one.
//
// Progressive precision: each level may store its operator, smoother state,
// and level vectors in its *own* format, driven by a PrecisionSchedule
// (e.g. fp32 fine level, bf16/fp16 coarse levels). Levels are held in a
// per-level variant; promotion/demotion happens inside the restriction and
// prolongation kernels (on their final stores), so crossing a precision
// boundary between levels adds no extra full-grid conversion pass. The
// empty schedule is the degenerate uniform case and reproduces the
// single-format V-cycle exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "base/aligned_vector.hpp"
#include "base/types.hpp"
#include "core/bytes_model.hpp"
#include "core/dist_operator.hpp"
#include "core/params.hpp"
#include "grid/problem.hpp"
#include "precision/precision.hpp"
#include "precision/scale_guard.hpp"

namespace hpgmx {

/// Precision-independent multigrid hierarchy of one rank's subdomain.
struct ProblemHierarchy {
  /// levels[0] is the fine problem.
  std::vector<Problem> levels;
  /// c2f[l]: level-(l+1) coarse id → level-l fine id. size levels.size()-1.
  std::vector<AlignedVector<local_index_t>> c2f;
  /// Total nonzeros of level-l rows selected by c2f[l] (fused-restrict
  /// FLOP model input).
  std::vector<std::int64_t> nnz_coarse_rows;
  /// Orderings per level, shared by all precisions.
  std::vector<std::unique_ptr<OperatorStructure>> structures;
};

/// Build `max_levels` levels (fewer if local dims stop being even).
ProblemHierarchy build_hierarchy(Problem fine, int max_levels,
                                 std::uint64_t coloring_seed);

/// Largest |a_ij| of each level of the hierarchy — what the per-level
/// demotion scales of a precision-scheduled multigrid are chosen from.
/// Local to this rank's subdomain: multi-rank callers allreduce each entry
/// (ReduceOp::Max) before handing the vector to Multigrid, so every rank
/// picks identical power-of-two scales.
[[nodiscard]] inline std::vector<double> hierarchy_level_max_abs(
    const ProblemHierarchy& hierarchy) {
  std::vector<double> out;
  out.reserve(hierarchy.levels.size());
  for (const Problem& lvl : hierarchy.levels) {
    double max_abs = 0.0;
    for (const double v : lvl.a.values) {
      max_abs = std::max(max_abs, std::abs(v));
    }
    out.push_back(max_abs);
  }
  return out;
}

/// Largest |a_ij| across every level of the hierarchy — what a ScaleGuard
/// compares against the target format's overflow threshold before the
/// low-precision operators are demoted.
[[nodiscard]] inline double hierarchy_max_abs_value(
    const ProblemHierarchy& hierarchy) {
  double max_abs = 0.0;
  for (const double v : hierarchy_level_max_abs(hierarchy)) {
    max_abs = std::max(max_abs, v);
  }
  return max_abs;
}

/// The max|A| a ScaleGuard should be initialized against for a given
/// schedule. Uniform (empty schedule) runs demote every level at the
/// guard's single scale, so the guard must see the whole hierarchy's
/// maximum. Scheduled runs anchor the guard at the *fine* level only:
/// each coarser level carries its own equilibration relative to the fine
/// one (Multigrid's level_scale), so folding a coarse level's larger
/// maximum into the guard as well would scale that level twice.
[[nodiscard]] inline double guard_reference_max_abs(
    std::span<const double> level_max_abs, const PrecisionSchedule& schedule) {
  HPGMX_CHECK(!level_max_abs.empty());
  if (schedule.empty()) {
    double max_abs = 0.0;
    for (const double v : level_max_abs) {
      max_abs = std::max(max_abs, v);
    }
    return max_abs;
  }
  return level_max_abs[0];
}

/// Streaming dimensions of every hierarchy level, feeding the per-level
/// V-cycle traffic model (mg_vcycle_bytes in core/bytes_model.hpp).
[[nodiscard]] inline std::vector<MgLevelDims> hierarchy_level_dims(
    const ProblemHierarchy& hierarchy) {
  std::vector<MgLevelDims> dims(hierarchy.levels.size());
  for (std::size_t l = 0; l < hierarchy.levels.size(); ++l) {
    dims[l].nnz = hierarchy.levels[l].a.nnz();
    dims[l].rows = hierarchy.levels[l].a.num_rows;
    if (l + 1 < hierarchy.levels.size()) {
      dims[l].nnz_coarse_rows = hierarchy.nnz_coarse_rows[l];
      dims[l].coarse_rows = hierarchy.levels[l + 1].a.num_rows;
    }
  }
  return dims;
}

/// Per-level stored-value widths for a schedule over `num_levels` levels
/// (uniform `fallback` when the schedule is empty) — the bytes half of the
/// V-cycle traffic model.
[[nodiscard]] inline std::vector<std::size_t> schedule_value_bytes(
    const PrecisionSchedule& schedule, int num_levels, Precision fallback) {
  std::vector<std::size_t> out(static_cast<std::size_t>(num_levels));
  for (int l = 0; l < num_levels; ++l) {
    out[static_cast<std::size_t>(l)] =
        precision_bytes(schedule.empty() ? fallback : schedule.at(l));
  }
  return out;
}

/// Multigrid preconditioner over a shared hierarchy. `TFine` is the fine
/// (entry) level's precision — the format the attached solver exchanges
/// vectors in; coarser levels follow the PrecisionSchedule (uniform TFine
/// when the schedule is empty).
template <typename TFine>
class Multigrid {
 public:
  /// `value_scale` demotes every level's matrix as α·A (ScaleGuard hook);
  /// the scalar commutes through Gauss–Seidel and injection exactly, so
  /// the V-cycle preconditions α·A as well as it preconditions A.
  ///
  /// `schedule` selects one storage format per level ({} = uniform TFine;
  /// its entry must match TFine, and shorter schedules extend with their
  /// last entry). Scheduled narrow-format levels get an *additional*
  /// per-level power-of-two equilibration scale on top of `value_scale`,
  /// chosen from `level_max_abs` (global per-level max|A|; multi-rank
  /// callers must pass values already allreduced with ReduceOp::Max so
  /// every rank demotes identically — when empty, they are computed from
  /// the local hierarchy, which is exact on one rank). Prolongation
  /// compensates the scale mismatch between adjacent levels, so the
  /// V-cycle still preconditions value_scale·A.
  Multigrid(const ProblemHierarchy& hierarchy, const BenchParams& params,
            int tag_base = 100, double value_scale = 1.0,
            PrecisionSchedule schedule = {},
            std::span<const double> level_max_abs = {})
      : hierarchy_(&hierarchy) {
    const int nl = static_cast<int>(hierarchy.levels.size());
    if (!schedule.empty()) {
      HPGMX_CHECK_MSG(
          schedule.entry() == precision_of_v<TFine>,
          "precision schedule '"
              << schedule.to_string() << "' enters at "
              << precision_name(schedule.entry())
              << " but the multigrid is instantiated for "
              << precision_name(precision_of_v<TFine>)
              << " — dispatch the solver on the schedule's entry format");
    }
    std::vector<double> local_max_abs;
    if (!schedule.empty() && level_max_abs.empty()) {
      local_max_abs = hierarchy_level_max_abs(hierarchy);
      level_max_abs = std::span<const double>(local_max_abs);
    }
    level_scale_.assign(static_cast<std::size_t>(nl), 1.0);
    if (!schedule.empty()) {
      HPGMX_CHECK(static_cast<int>(level_max_abs.size()) >= nl);
      for (int l = 0; l < nl; ++l) {
        dispatch_precision(schedule.at(l), [&](auto tag) {
          using TL = typename decltype(tag)::type;
          level_scale_[static_cast<std::size_t>(l)] = equilibration_scale(
              level_max_abs[static_cast<std::size_t>(l)],
              PrecisionTraits<TL>::max_finite);
        });
      }
      // Normalize so the entry level demotes at exactly `value_scale`, the
      // contract GmresIr's ScaleGuard compensation (x += ρ·α·z) relies on;
      // coarser levels keep only their *relative* equilibration.
      const double entry_scale = level_scale_[0];
      for (double& s : level_scale_) {
        s /= entry_scale;
      }
    }
    levels_.reserve(static_cast<std::size_t>(nl));
    for (int l = 0; l < nl; ++l) {
      const Precision pl =
          schedule.empty() ? precision_of_v<TFine> : schedule.at(l);
      dispatch_precision(pl, [&](auto tag) {
        using TL = typename decltype(tag)::type;
        MgLevel<TL> lvl{
            DistOperator<TL>(
                hierarchy.levels[static_cast<std::size_t>(l)].a,
                hierarchy.structures[static_cast<std::size_t>(l)].get(),
                params.opt, tag_base + l,
                value_scale * level_scale_[static_cast<std::size_t>(l)]),
            {},
            {}};
        const auto len = static_cast<std::size_t>(lvl.op.vec_len());
        lvl.r.assign(len, TL(0));
        lvl.z.assign(len, TL(0));
        levels_.emplace_back(std::move(lvl));
      });
    }
  }

  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }

  /// Storage format of level `l` (schedule entry, or TFine when uniform).
  [[nodiscard]] Precision level_precision(int l) const {
    return std::visit(
        [](const auto& lvl) {
          using TL = typename std::decay_t<decltype(lvl)>::value_type;
          return precision_of_v<TL>;
        },
        levels_[static_cast<std::size_t>(l)]);
  }

  /// Symmetric smoothing: every forward Gauss–Seidel sweep is followed by a
  /// backward one, so M⁻¹ is symmetric — the HPCG preconditioner CG needs.
  /// Off by default: GMRES and GMRES-IR smooth forward only.
  void set_symmetric_smoothing(bool symmetric) { symmetric_ = symmetric; }

  /// Per-level equilibration scale α_l (1.0 on every uniform path).
  [[nodiscard]] double level_scale(int l) const {
    return level_scale_[static_cast<std::size_t>(l)];
  }

  /// The level-l operator, typed as the fine format. Valid whenever level
  /// l's scheduled format *is* TFine (always true for uniform schedules —
  /// the degenerate case every pre-schedule caller lives in).
  [[nodiscard]] DistOperator<TFine>& level_op(int l) {
    auto* lvl =
        std::get_if<MgLevel<TFine>>(&levels_[static_cast<std::size_t>(l)]);
    HPGMX_CHECK_MSG(lvl != nullptr,
                    "level " << l << " is scheduled as "
                             << precision_name(level_precision(l)) << ", not "
                             << precision_name(precision_of_v<TFine>));
    return lvl->op;
  }

  void set_stats(MotifStats* stats) {
    stats_ = stats;
    for (auto& level : levels_) {
      std::visit([&](auto& lvl) { lvl.op.set_stats(stats); }, level);
    }
  }
  void set_event_sink(EventSink* sink) {
    for (auto& level : levels_) {
      std::visit([&](auto& lvl) { lvl.op.set_event_sink(sink); }, level);
    }
  }

  /// Attach/detach the SDC monitor on every level's halo exchange.
  void set_sdc_monitor(SdcMonitor* monitor) {
    for (auto& level : levels_) {
      std::visit([&](auto& lvl) { lvl.op.set_sdc_monitor(monitor); }, level);
    }
  }

  /// Re-demote every level from its pristine double source at its current
  /// scale — the SDC-rollback repair for possibly corrupted values.
  void redemote() {
    for (auto& level : levels_) {
      std::visit([&](auto& lvl) { lvl.op.redemote(); }, level);
    }
  }

  /// Re-demote every level at the absolute scale (ScaleGuard backoff/regrow).
  /// Scheduled levels compose the guard's global scale with their fixed
  /// per-level equilibration.
  void set_value_scale(double scale) {
    for (int l = 0; l < num_levels(); ++l) {
      std::visit(
          [&](auto& lvl) {
            lvl.op.set_value_scale(scale *
                                   level_scale_[static_cast<std::size_t>(l)]);
          },
          levels_[static_cast<std::size_t>(l)]);
    }
  }

  /// z ← M⁻¹ r: one V-cycle with zero initial guess on every level.
  /// r and z are fine-level owned-length (or longer) spans.
  void apply(Comm& comm, std::span<const TFine> r, std::span<TFine> z) {
    // Copy r into the level-0 buffer (the cycle needs halo-capable storage).
    auto& l0 = std::get<MgLevel<TFine>>(levels_[0]);
    const auto owned = static_cast<std::size_t>(l0.op.num_owned());
    for (std::size_t i = 0; i < owned; ++i) {
      l0.r[i] = r[i];
    }
    cycle(comm, 0);
    for (std::size_t i = 0; i < owned; ++i) {
      z[i] = l0.z[i];
    }
  }

 private:
  /// One level's typed state: operator plus residual/correction buffers in
  /// the level's own storage format.
  template <typename T>
  struct MgLevel {
    using value_type = T;
    DistOperator<T> op;
    AlignedVector<T> r;
    AlignedVector<T> z;
  };
  using LevelVariant = std::variant<MgLevel<double>, MgLevel<float>,
                                    MgLevel<bf16_t>, MgLevel<fp16_t>>;

  void cycle(Comm& comm, int l) {
    const bool coarsest = (l + 1 == num_levels());
    auto& level = levels_[static_cast<std::size_t>(l)];

    std::visit(
        [](auto& lvl) {
          using TL = typename std::decay_t<decltype(lvl)>::value_type;
          std::fill(lvl.z.begin(), lvl.z.end(), TL(0));
        },
        level);
    smooth(comm, level);
    if (coarsest) {
      return;
    }

    auto& coarse = levels_[static_cast<std::size_t>(l + 1)];
    const auto& c2f = hierarchy_->c2f[static_cast<std::size_t>(l)];
    const std::span<const local_index_t> c2f_span(c2f.data(), c2f.size());

    // Restriction demotes/promotes into the coarse level's format on the
    // kernel's final store — no separate conversion sweep.
    std::visit(
        [&](auto& lvl, auto& clvl) {
          using TL = typename std::decay_t<decltype(lvl)>::value_type;
          using TC = typename std::decay_t<decltype(clvl)>::value_type;
          lvl.op.restrict_residual(
              comm, std::span<const TL>(lvl.r.data(), lvl.r.size()),
              std::span<TL>(lvl.z.data(), lvl.z.size()), c2f_span,
              hierarchy_->nnz_coarse_rows[static_cast<std::size_t>(l)],
              std::span<TC>(clvl.r.data(), clvl.r.size()));
        },
        level, coarse);

    cycle(comm, l + 1);

    // The coarse level solved (α_{l+1}/α_l)-rescaled equations relative to
    // this one; prolongation compensates while it promotes the correction.
    const double alpha = level_scale_[static_cast<std::size_t>(l + 1)] /
                         level_scale_[static_cast<std::size_t>(l)];
    std::visit(
        [&](auto& lvl, auto& clvl) {
          using TL = typename std::decay_t<decltype(lvl)>::value_type;
          using TC = typename std::decay_t<decltype(clvl)>::value_type;
          ScopedMotif sm(stats_, Motif::Prolong,
                         prolong_flops(static_cast<local_index_t>(c2f.size())));
          prolong_correct(c2f_span,
                          std::span<const TC>(clvl.z.data(), clvl.z.size()),
                          std::span<TL>(lvl.z.data(), lvl.z.size()), alpha);
        },
        level, coarse);

    smooth(comm, level);
  }

  /// One smoothing step of z toward A z = r on a level: a forward sweep,
  /// then a backward one in symmetric mode.
  void smooth(Comm& comm, LevelVariant& level) {
    std::visit(
        [&](auto& lvl) {
          using TL = typename std::decay_t<decltype(lvl)>::value_type;
          const std::span<const TL> r(lvl.r.data(), lvl.r.size());
          const std::span<TL> z(lvl.z.data(), lvl.z.size());
          lvl.op.gs_forward(comm, r, z);
          if (symmetric_) {
            lvl.op.gs_backward(comm, r, z);
          }
        },
        level);
  }

  const ProblemHierarchy* hierarchy_;
  std::vector<LevelVariant> levels_;
  std::vector<double> level_scale_;
  bool symmetric_ = false;
  MotifStats* stats_ = nullptr;
};

}  // namespace hpgmx
