#include "spice/mna_batch.hpp"

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
  const StampContext ctx = dc_context();

  // Nominal operating point, solved once with the full gmin-stepping
  // ladder.  It serves two roles: every trial's Newton starts from it
  // (a pure, trial-independent seed a small mismatch draw converges
  // from in a few iterations), and the shared symbolic factorization is
  // frozen from the first-iteration matrix AT this point — where the
  // devices are biased and the pivots are healthy, unlike at x = 0
  // where a cutoff transistor leaves whole rows at gmin.
  if (opt_.nominal_seed.size() == c.system_size()) {
    x_nominal_ = opt_.nominal_seed;  // ladder precomputed by the caller
  } else {
    DcOptions dopt;
    dopt.newton = opt_.newton;
    dopt.erc_gate = false;
    x_nominal_ = dc_operating_point(c, dopt).x;
  }

  // The frozen pattern covers every parameter draw: draws move values,
  // never coordinates — apart from the MOSFET orientation swap, which
  // the symmetrized discovery absorbs.
  core_.bind(ctx);

  // Shared-symbolic reference: the first Newton iteration's matrix with
  // the circuit's CURRENT (nominal) parameters at the nominal operating
  // point — deterministic and independent of any trial, so every trial
  // eliminates in the same frozen order.
  core_.stamp_baseline(ctx, x_nominal_, opt_.newton.gmin);
  core_.assemble(ctx, x_nominal_);
  a_nominal_ = core_.matrix();
  try {
    core_.factor(a_nominal_);
  } catch (const linalg::SingularMatrixError& e) {
    throw ConvergenceError(std::string("singular nominal MNA matrix: ") +
                           e.what());
  }
  nominal_builds_ = core_.symbolic_builds();

  revision_ = c.revision();
  prepared_ = true;
}

int McDcEngine::solve_scalar(std::uint64_t seed,
                             const std::function<void(std::uint64_t)>& apply,
                             linalg::Vector& x) {
  prepare();
  static obs::Counter& solves = obs::counter("mc.batch.scalar_solves");
  solves.add();

  // A previous trial's drift re-pivoted the LU on that trial's values
  // (a factor() that threw counts too: it may already have replaced the
  // nominal symbolic); restore the shared nominal symbolic so this
  // trial's result cannot depend on which trials preceded it.
  if (core_.symbolic_builds() != nominal_builds_) {
    core_.factor(a_nominal_);
    nominal_builds_ = core_.symbolic_builds();
  }

  x = x_nominal_;
  return core_.newton(dc_context(), x, opt_.newton, opt_.newton.gmin,
                      [&apply, seed] { apply(seed); });
}

}  // namespace si::spice
