#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"

namespace si::spice {

namespace {

/// Engine-level telemetry handles, registered once and hoisted so the
/// Newton hot loop records through preallocated atomics only.
struct MnaTelemetry {
  obs::Counter& newton_solves = obs::counter("mna.newton_solves");
  obs::Counter& newton_iterations = obs::counter("mna.newton_iterations");
  obs::Counter& pattern_builds = obs::counter("mna.pattern_builds");
  obs::Counter& symbolic_factors = obs::counter("mna.symbolic_factors");
  obs::Counter& numeric_refactors = obs::counter("mna.numeric_refactors");
  obs::Counter& pivot_repivots = obs::counter("mna.pivot_repivots");
  obs::Counter& pattern_misses = obs::counter("mna.pattern_misses");
  obs::Counter& singular_retries = obs::counter("mna.singular_matrix");
  obs::Timer& newton_time = obs::timer("mna.newton");

  static MnaTelemetry& get() {
    static MnaTelemetry t;
    return t;
  }
};

/// Publishes to the mna.* counters what one engine call added to its
/// MnaStats, once per call: Monte-Carlo workers solve concurrently, and
/// per-iteration adds on the shared atomics would contend.
class PublishStats {
 public:
  explicit PublishStats(const MnaStats& s) : s_(s), at_entry_(s) {}
  PublishStats(const PublishStats&) = delete;
  PublishStats& operator=(const PublishStats&) = delete;
  ~PublishStats() {
    MnaTelemetry& tm = MnaTelemetry::get();
    auto publish = [](obs::Counter& c, std::uint64_t now, std::uint64_t then) {
      if (now != then) c.add(now - then);
    };
    publish(tm.newton_iterations, s_.nonlinear_stamps,
            at_entry_.nonlinear_stamps);
    publish(tm.pattern_builds, s_.pattern_builds, at_entry_.pattern_builds);
    publish(tm.symbolic_factors, s_.symbolic_factors,
            at_entry_.symbolic_factors);
    publish(tm.numeric_refactors, s_.numeric_refactors,
            at_entry_.numeric_refactors);
    publish(tm.pivot_repivots, s_.pivot_repivots, at_entry_.pivot_repivots);
    publish(tm.pattern_misses, s_.pattern_misses, at_entry_.pattern_misses);
  }

 private:
  const MnaStats& s_;
  const MnaStats at_entry_;
};

/// Adds a missed coordinate to `grown`; the first miss of a topology is
/// counted.  Growing is only sound once per coordinate: a repeat means
/// the pattern did not take it, and retrying would loop forever.
void grow_pattern(std::vector<std::pair<int, int>>& grown,
                  const linalg::PatternMissError& miss, MnaStats& stats) {
  const std::pair<int, int> rc{miss.row(), miss.col()};
  if (std::find(grown.begin(), grown.end(), rc) != grown.end())
    throw std::logic_error(std::string("MNA pattern growth did not take: ") +
                           miss.what());
  if (grown.empty()) ++stats.pattern_misses;
  grown.push_back(rc);
}

/// Factors `a` into `lu` on first use (warm == false), refactors it
/// numerically afterwards, and re-runs the pivoting factorization once
/// when a frozen pivot drifts.  Throws SingularMatrixError.
template <typename T>
void factor_or_refactor(linalg::SparseLu<T>& lu,
                        const linalg::SparseMatrix<T>& a, bool& warm,
                        MnaStats& stats) {
  if (!warm) {
    lu.factor(a);
    warm = true;
    ++stats.symbolic_factors;
    return;
  }
  try {
    lu.refactor(a);
    ++stats.numeric_refactors;
  } catch (const linalg::PivotDriftError&) {
    // Operating point drifted past the frozen pivot choice: redo the
    // pivoting factorization once and carry on with the new order.
    lu.factor(a);
    ++stats.symbolic_factors;
    ++stats.pivot_repivots;
  }
}

}  // namespace

SolverKind resolve_solver(SolverKind, std::size_t) {
  return SolverKind::kSparse;
}

// ----------------------------------------------------------- NewtonCore

void NewtonCore::bind(const StampContext& ctx) {
  std::vector<Element*> linear, nonlinear;
  for (const auto& e : circuit_->elements())
    (e->nonlinear() ? nonlinear : linear).push_back(e.get());
  bind(std::move(linear), std::move(nonlinear), {}, ctx);
}

void NewtonCore::bind(std::vector<Element*> linear,
                      std::vector<Element*> nonlinear,
                      std::vector<unsigned char> scope,
                      const StampContext& ctx) {
  PublishStats publish(*stats_);
  linear_ = std::move(linear);
  nonlinear_ = std::move(nonlinear);
  scope_ = std::move(scope);
  grown_.clear();
  discover(ctx);
}

void NewtonCore::discover(const StampContext& ctx) {
  // Discovery pass: record every (row, col) an element can touch.  The
  // same topology stamps different coordinate sets per analysis mode
  // (capacitor companions vanish at DC), so record under both; the
  // builder symmetrizes, which also covers the MOSFET drain/source
  // orientation swap.  Under a scope only in-scope coordinates are
  // recorded (frozen rows keep just their identity diagonal, which the
  // builder includes unconditionally).
  const std::size_t n = circuit_->system_size();
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::Vector scratch_b(n, 0.0);
  linalg::Vector scratch_x(n, 0.0);
  RealStamper r(*circuit_, rec, scratch_b, scratch_x);
  if (!scope_.empty()) r.set_scope(&scope_);
  StampContext probe = ctx;
  auto record = [&] {
    for (Element* e : linear_) e->stamp(r, probe);
    for (Element* e : nonlinear_) e->stamp(r, probe);
  };
  probe.mode = AnalysisMode::kDcOperatingPoint;
  record();
  probe.mode = AnalysisMode::kTransient;
  if (probe.dt <= 0.0) probe.dt = 1.0;
  probe.integrator = Integrator::kTrapezoidal;
  record();
  for (const auto& [row, col] : grown_) rec.add(row, col);
  pattern_ = rec.build(/*symmetrize=*/true);
  ++stats_->pattern_builds;

  a0_ = linalg::SparseMatrixD(pattern_);
  a_ = linalg::SparseMatrixD(pattern_);
  lu_ = linalg::SparseLuD();  // drop the stale symbolic factorization
  lu_warm_ = false;
  lin_memo_warm_ = false;
  nl_memo_warm_ = false;
  b0_.assign(n, 0.0);
  b_.assign(n, 0.0);
  x_new_.assign(n, 0.0);
}

void NewtonCore::stamp_baseline(const StampContext& ctx,
                                const linalg::Vector& x, double gdiag) {
  const std::size_t n_nodes = circuit_->node_count() - 1;
  b0_.assign(b0_.size(), 0.0);
  ++stats_->base_stamps;
  a0_.set_zero();
  if (lin_memo_warm_)
    lin_memo_.start_replay();
  else
    lin_memo_.start_record();
  RealStamper s(*circuit_, a0_, b0_, x, &lin_memo_);
  if (!scope_.empty()) s.set_scope(&scope_);
  for (Element* e : linear_) e->stamp(s, ctx);
  lin_memo_warm_ = true;
  const auto& diag = pattern_->diag_slots();
  auto& vals = a0_.values();
  for (std::size_t i = 0; i < n_nodes; ++i)
    if (in_scope(i)) vals[static_cast<std::size_t>(diag[i])] += gdiag;
  if (scope_.empty()) return;
  // Identity equations for held unknowns: A[r,r] = 1, b[r] = x[r].
  // Frozen rows and columns carry no other entries (the scoped stamper
  // dropped the rows and condensed the columns), so the solve passes
  // the held values through exactly.
  for (std::size_t r = 0; r < scope_.size(); ++r)
    if (!scope_[r]) {
      vals[static_cast<std::size_t>(diag[r])] = 1.0;
      b0_[r] = x[r];
    }
}

void NewtonCore::assemble(const StampContext& ctx, const linalg::Vector& x) {
  b_ = b0_;
  ++stats_->nonlinear_stamps;
  a_.copy_values_from(a0_);
  if (nl_memo_warm_)
    nl_memo_.start_replay();
  else
    nl_memo_.start_record();
  RealStamper s(*circuit_, a_, b_, x, &nl_memo_);
  if (!scope_.empty()) s.set_scope(&scope_);
  for (Element* e : nonlinear_) e->stamp(s, ctx);
  nl_memo_warm_ = true;
}

void NewtonCore::factor(const linalg::SparseMatrixD& a) {
  PublishStats publish(*stats_);
  lu_warm_ = false;
  factor_or_refactor(lu_, a, lu_warm_, *stats_);
}

int NewtonCore::newton(const StampContext& ctx, linalg::Vector& x,
                       const NewtonOptions& opt, double gdiag,
                       const std::function<void()>& before_stamp) {
  PublishStats publish(*stats_);
  while (true) {
    try {
      return newton_once(ctx, x, opt, gdiag, before_stamp);
    } catch (const linalg::PatternMissError& miss) {
      // An element stamped outside the discovered pattern (a
      // stamp-pattern contract violation): take the coordinate into the
      // pattern and solve again.  The grown coordinates stay until the
      // next bind(), so the topology misses once.
      if (!grow_on_miss_) throw;
      grow_pattern(grown_, miss, *stats_);
      discover(ctx);
    }
  }
}

int NewtonCore::newton_once(const StampContext& ctx, linalg::Vector& x,
                            const NewtonOptions& opt, double gdiag,
                            const std::function<void()>& before_stamp) {
  const std::size_t n = x.size();
  const std::size_t n_nodes = circuit_->node_count() - 1;
  if (before_stamp) before_stamp();
  stamp_baseline(ctx, x, gdiag);

  for (int it = 1; it <= opt.max_iterations; ++it) {
    // Cancellation / deadline checkpoint: CancelledError is not a
    // ConvergenceError, so it unwinds past the gmin ladder instead of
    // being retried at a different gmin.
    if (opt.cancel) opt.cancel->checkpoint();
    if (before_stamp) before_stamp();
    assemble(ctx, x);
    try {
      factor_or_refactor(lu_, a_, lu_warm_, *stats_);
    } catch (const linalg::SingularMatrixError& e) {
      MnaTelemetry::get().singular_retries.add();
      throw ConvergenceError(std::string("singular MNA matrix: ") + e.what());
    }
    lu_.solve(b_, x_new_);

    if (nonlinear_.empty()) {
      // Linear circuits solve exactly in one step; no damping needed.
      x = x_new_;
      return it;
    }

    // Damp: clamp per-node voltage updates to avoid overshooting the
    // square-law device curves, and check convergence on the raw
    // update.  Out-of-scope unknowns pass through with dv == 0.
    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      double dv = x_new_[i] - x[i];
      if (i < n_nodes) {
        const double tol = opt.v_abstol + opt.v_reltol * std::abs(x[i]);
        if (std::abs(dv) > tol) converged = false;
        dv = std::clamp(dv, -opt.max_step, opt.max_step);
      }
      x[i] += dv;
    }
    if (converged && it > 1) return it;
  }
  throw ConvergenceError("Newton iteration did not converge in " +
                         std::to_string(opt.max_iterations) + " iterations");
}

// ------------------------------------------------------------ MnaEngine

int MnaEngine::newton(const StampContext& ctx, linalg::Vector& x,
                      const NewtonOptions& opt, double extra_gdiag) {
  MnaTelemetry& tm = MnaTelemetry::get();
  obs::TraceSpan span("mna.newton");
  obs::ScopedTimer timed(tm.newton_time);
  tm.newton_solves.add();
  Circuit& c = *circuit_;
  c.finalize();
  if (!prepared_ || revision_ != c.revision()) {
    // New topology (or first solve): rediscover the pattern.  Grown
    // coordinates belong to the old topology and are dropped with it.
    ++stats_.workspace_allocs;
    prepared_ = false;
    core_.bind(ctx);
    revision_ = c.revision();
    prepared_ = true;
  }
  if (x.size() != c.system_size()) x.assign(c.system_size(), 0.0);
  return core_.newton(ctx, x, opt, opt.gmin + extra_gdiag);
}

// ------------------------------------------------------------- AcEngine

void AcEngine::prepare() {
  Circuit& c = *circuit_;
  c.finalize();
  if (prepared_ && revision_ == c.revision()) return;
  if (revision_ != c.revision()) grown_.clear();
  revision_ = c.revision();
  prepared_ = true;
  ++stats_.workspace_allocs;

  // Small-signal stamps touch the same coordinates at every frequency
  // (only the admittance values scale with omega), so one discovery
  // pass at an arbitrary nonzero frequency freezes the pattern.
  const std::size_t n = c.system_size();
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::ComplexVector scratch_b(n);
  ComplexStamper r(c, rec, scratch_b);
  for (const auto& e : c.elements()) e->stamp_ac(r, 1.0);
  for (const auto& [row, col] : grown_) rec.add(row, col);
  pattern_ = rec.build(/*symmetrize=*/true);
  ++stats_.pattern_builds;
  a_ = linalg::SparseMatrixZ(pattern_);
  lu_ = linalg::SparseLuZ();
  b_.assign(n, std::complex<double>{});
  lu_warm_ = false;
  memo_warm_ = false;
}

void AcEngine::assemble(double omega) {
  obs::TraceSpan span("ac.assemble");
  PublishStats publish(stats_);
  while (true) {
    prepare();
    b_.assign(b_.size(), std::complex<double>{});
    a_.set_zero();
    if (memo_warm_)
      memo_.start_replay();
    else
      memo_.start_record();
    try {
      ComplexStamper s(*circuit_, a_, b_, &memo_);
      for (const auto& e : circuit_->elements()) e->stamp_ac(s, omega);
    } catch (const linalg::PatternMissError& miss) {
      // Same pattern growth as NewtonCore::newton.
      grow_pattern(grown_, miss, stats_);
      prepared_ = false;
      continue;
    }
    memo_warm_ = true;
    factor_or_refactor(lu_, a_, lu_warm_, stats_);
    return;
  }
}

}  // namespace si::spice
