// The benchmark's double reference solver (paper algorithm 2): restarted,
// right-preconditioned GMRES with CGS2 in double. It is not a second loop —
// algorithm 2 is the uniform-precision case of algorithm 3, so Gmres<double>
// runs GmresIr<double> with one operator, the multigrid's fine level, as
// both the outer (residual) and the inner (Arnoldi) operator.
#pragma once

#include "core/gmres_ir.hpp"

namespace hpgmx {

template <typename T>
class Gmres;

template <>
class Gmres<double> : public GmresIr<double> {
 public:
  /// `a` (normally `&mg->level_op(0)`) and `mg` must outlive the solver.
  Gmres(DistOperator<double>* a, Multigrid<double>* mg, SolverOptions opts)
      : GmresIr<double>(a, a, mg, opts) {}
};

}  // namespace hpgmx
