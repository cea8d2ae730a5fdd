#include "spice/mna_batch.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/telemetry.hpp"
#include "spice/circuit.hpp"

namespace si::spice {

StampContext McDcEngine::dc_context() const {
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.gmin = opt_.newton.gmin;
  return ctx;
}

void McDcEngine::prepare() {
  Circuit& c = *circuit_;
  c.finalize();
  if (prepared_ && revision_ == c.revision()) return;
  prepared_ = false;  // poison until the rebuild below fully succeeds

  linear_.clear();
  nonlinear_.clear();
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear_ : linear_).push_back(e.get());

  n_ = c.system_size();
  n_nodes_ = c.node_count() - 1;
  const StampContext ctx = dc_context();

  // Nominal operating point, solved once with the full gmin-stepping
  // ladder.  It serves two roles: every trial's Newton starts from it
  // (a pure, trial-independent seed a small mismatch draw converges
  // from in a few iterations), and the shared symbolic factorization is
  // frozen from the first-iteration matrix AT this point — where the
  // devices are biased and the pivots are healthy, unlike at x = 0
  // where a cutoff transistor leaves whole rows at gmin.
  if (opt_.nominal_seed.size() == n_) {
    x_nominal_ = opt_.nominal_seed;  // ladder precomputed by the caller
  } else {
    DcOptions dopt;
    dopt.newton = opt_.newton;
    dopt.erc_gate = false;
    x_nominal_ = dc_operating_point(c, dopt).x;
  }

  // Discovery pass, identical to MnaEngine::prepare(): record under both
  // analysis modes and symmetrize, so the frozen pattern covers every
  // parameter draw (draws move values, never coordinates — apart from
  // the MOSFET orientation swap, which symmetrization absorbs).
  {
    linalg::PatternBuilder rec(static_cast<int>(n_));
    linalg::Vector scratch_b(n_, 0.0);
    linalg::Vector scratch_x(n_, 0.0);
    RealStamper r(c, rec, scratch_b, scratch_x);
    StampContext probe = ctx;
    probe.mode = AnalysisMode::kDcOperatingPoint;
    for (const auto& e : c.elements()) e->stamp(r, probe);
    probe.mode = AnalysisMode::kTransient;
    probe.dt = 1.0;
    probe.integrator = Integrator::kTrapezoidal;
    for (const auto& e : c.elements()) e->stamp(r, probe);
    pattern_ = rec.build(/*symmetrize=*/true);
    obs::counter("mna.pattern_builds").add();
  }

  // Shared-symbolic reference: the first Newton iteration's matrix with
  // the circuit's CURRENT (nominal) parameters at the nominal operating
  // point — deterministic and independent of any trial, so every trial
  // eliminates in the same frozen order.
  a_nominal_ = linalg::SparseMatrixD(pattern_);
  {
    linalg::Vector scratch_b(n_, 0.0);
    RealStamper s(c, a_nominal_, scratch_b, x_nominal_);
    for (Element* e : linear_) e->stamp(s, ctx);
    const auto& diag = pattern_->diag_slots();
    auto& vals = a_nominal_.values();
    for (std::size_t i = 0; i < n_nodes_; ++i)
      vals[static_cast<std::size_t>(diag[i])] += opt_.newton.gmin;
    for (Element* e : nonlinear_) e->stamp(s, ctx);
  }
  try {
    lu_.factor(a_nominal_);
  } catch (const linalg::SingularMatrixError& e) {
    throw ConvergenceError(std::string("singular nominal MNA matrix: ") +
                           e.what());
  }
  obs::counter("mna.symbolic_factors").add();
  repivoted_ = false;

  lin_memo_warm_ = false;
  nl_memo_warm_ = false;
  b0_.assign(n_, 0.0);
  b_.assign(n_, 0.0);
  x_new_.assign(n_, 0.0);
  a0_ = linalg::SparseMatrixD(pattern_);
  a_ = linalg::SparseMatrixD(pattern_);

  revision_ = c.revision();
  prepared_ = true;
}

int McDcEngine::solve_scalar(std::uint64_t seed,
                             const std::function<void(std::uint64_t)>& apply,
                             linalg::Vector& x) {
  prepare();
  static obs::Counter& solves = obs::counter("mc.batch.scalar_solves");
  Circuit& c = *circuit_;
  const StampContext ctx = dc_context();
  const NewtonOptions& opt = opt_.newton;

  // A previous trial's drift re-pivoted the LU on that trial's values;
  // restore the shared nominal symbolic so this trial's result cannot
  // depend on which trials preceded it.
  if (repivoted_) {
    lu_.factor(a_nominal_);
    repivoted_ = false;
    obs::counter("mna.symbolic_factors").add();
  }

  // Baseline: linear elements stamped once per trial, plus gmin on the
  // node diagonals.
  x = x_nominal_;
  a0_.set_zero();
  b0_.assign(n_, 0.0);
  apply(seed);
  {
    if (lin_memo_warm_)
      lin_memo_.start_replay();
    else
      lin_memo_.start_record();
    RealStamper s(c, a0_, b0_, x, &lin_memo_);
    for (Element* e : linear_) e->stamp(s, ctx);
    lin_memo_warm_ = true;
    const auto& diag = pattern_->diag_slots();
    auto& vals = a0_.values();
    for (std::size_t i = 0; i < n_nodes_; ++i)
      vals[static_cast<std::size_t>(diag[i])] += opt.gmin;
  }

  for (int it = 1; it <= opt.max_iterations; ++it) {
    b_ = b0_;
    a_.copy_values_from(a0_);
    apply(seed);
    if (nl_memo_warm_)
      nl_memo_.start_replay();
    else
      nl_memo_.start_record();
    RealStamper s(c, a_, b_, x, &nl_memo_);
    for (Element* e : nonlinear_) e->stamp(s, ctx);
    nl_memo_warm_ = true;

    try {
      try {
        lu_.refactor(a_);
      } catch (const linalg::PivotDriftError&) {
        // Re-pivot on this trial's own values.  Marked first: a factor()
        // that throws may already have replaced the nominal symbolic.
        repivoted_ = true;
        lu_.factor(a_);
        obs::counter("mna.pivot_repivots").add();
      }
    } catch (const linalg::SingularMatrixError& e) {
      throw ConvergenceError(std::string("singular MNA matrix: ") + e.what());
    }
    lu_.solve(b_, x_new_);
    solves.add();

    if (nonlinear_.empty()) {
      x = x_new_;
      return it;
    }
    // Damping and convergence, mirroring MnaEngine::newton.
    bool converged = true;
    for (std::size_t i = 0; i < n_; ++i) {
      double dv = x_new_[i] - x[i];
      if (i < n_nodes_) {
        const double tol = opt.v_abstol + opt.v_reltol * std::abs(x[i]);
        if (std::abs(dv) > tol) converged = false;
        dv = std::clamp(dv, -opt.max_step, opt.max_step);
      }
      x[i] += dv;
    }
    if (converged && it > 1) return it;
  }
  throw ConvergenceError("Monte-Carlo DC solve did not converge in " +
                         std::to_string(opt.max_iterations) + " iterations");
}

}  // namespace si::spice
