// MNA assembly/solve engines shared by every analysis.
//
// Every real-valued Newton solve runs through one NewtonCore: one sparse
// system with its per-topology caches (sparsity pattern, symbolic
// factorization, element stamp-slot memos) and the preallocated
// workspaces that make the Newton and transient hot loops
// allocation-free after the first solve.  MnaEngine, the event engine's
// ScopedMnaEngine and the Monte-Carlo McDcEngine each wrap it with what
// is their own: rebuild on a topology edit, per-scope state, the shared
// nominal symbolic factorization.
//
// Stamp-partition contract (see DESIGN.md): elements whose stamp values
// are fixed for one solve context — everything except devices reporting
// nonlinear() — are stamped once per newton() call into a baseline;
// each Newton iteration copies the baseline and restamps only the
// nonlinear devices through a slot memo, so the per-iteration cost is a
// value copy, a handful of indexed writes, and a numeric refactor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"
#include "spice/dc.hpp"

namespace si::spice {

/// Retired solver selector: sparse is the only MNA representation.
/// Kept, with resolve_solver(), only because the end-to-end benchmark
/// (perfbench/src/transistor.cpp) still names every enumerator; no
/// engine takes one.
enum class SolverKind { kAuto, kDense, kSparse, kSchur };

/// Always SolverKind::kSparse (see SolverKind).
SolverKind resolve_solver(SolverKind requested, std::size_t n);

/// Engine instrumentation, exposed for tests and benchmarks.
struct MnaStats {
  std::uint64_t pattern_builds = 0;     ///< discovery passes (per topology)
  std::uint64_t symbolic_factors = 0;   ///< sparse pivoting factorizations
  std::uint64_t numeric_refactors = 0;  ///< sparse numeric-only refactors
  std::uint64_t base_stamps = 0;        ///< baseline (linear-part) stamps
  std::uint64_t nonlinear_stamps = 0;   ///< per-iteration device restamps
  std::uint64_t workspace_allocs = 0;   ///< workspace (re)allocations
  std::uint64_t pivot_repivots = 0;     ///< refactors rescued by re-pivoting
  std::uint64_t pattern_misses = 0;     ///< topologies whose pattern grew
  /// Device stamping: time in stamp_baseline() + assemble() [ns],
  /// clocked only while telemetry is enabled.
  std::uint64_t assemble_ns = 0;
};

/// One sparse MNA system and the damped Newton loop over it.
class NewtonCore {
 public:
  /// `grow_on_miss`: a stamp outside the discovered pattern adds the
  /// missed coordinate to the pattern and retries (false: the
  /// PatternMissError propagates to the caller).
  NewtonCore(Circuit& c, MnaStats& stats, bool grow_on_miss = true)
      : circuit_(&c), stats_(&stats), grow_on_miss_(grow_on_miss) {}

  /// Binds the whole (finalized) circuit: every element, no scope.
  void bind(const StampContext& ctx);

  /// Binds a scope-restricted system: `linear` / `nonlinear` are the
  /// elements stamped in the baseline / per iteration, and scope[i] != 0
  /// marks the unknowns solved for.  Out-of-scope unknowns become
  /// identity rows holding their value (see RealStamper::set_scope).
  void bind(std::vector<Element*> linear, std::vector<Element*> nonlinear,
            std::vector<unsigned char> scope, const StampContext& ctx);

  /// One damped Newton solve at a fixed context: seeds from `x` (which
  /// must have system_size() entries), adds `gdiag` from every in-scope
  /// node to ground, returns the iterations used and throws
  /// ConvergenceError on failure.  `before_stamp`, when set, runs before
  /// every stamping pass.
  int newton(const StampContext& ctx, linalg::Vector& x,
             const NewtonOptions& opt, double gdiag,
             const std::function<void()>& before_stamp = {});

  /// Baseline: the linear elements plus `gdiag` on the in-scope node
  /// diagonals, then the identity rows of the out-of-scope unknowns.
  void stamp_baseline(const StampContext& ctx, const linalg::Vector& x,
                      double gdiag);
  /// One iteration's system: the baseline plus the nonlinear restamp.
  void assemble(const StampContext& ctx, const linalg::Vector& x);
  /// The system of the last assemble().
  const linalg::SparseMatrixD& matrix() const { return a_; }

  /// Runs the pivoting factorization of `a` (same pattern) now; the
  /// next Newton iteration refactors over its symbolic.
  void factor(const linalg::SparseMatrixD& a);
  /// Symbolic factorizations the LU has run (factor() and re-pivots).
  std::size_t symbolic_builds() const { return lu_.symbolic_builds(); }

  const std::vector<Element*>& linear() const { return linear_; }
  const std::vector<Element*>& nonlinear() const { return nonlinear_; }

 private:
  void discover(const StampContext& ctx);
  int newton_once(const StampContext& ctx, linalg::Vector& x,
                  const NewtonOptions& opt, double gdiag,
                  const std::function<void()>& before_stamp);
  bool in_scope(std::size_t i) const { return scope_.empty() || scope_[i]; }

  Circuit* circuit_;
  MnaStats* stats_;
  bool grow_on_miss_;

  std::vector<Element*> linear_;
  std::vector<Element*> nonlinear_;
  std::vector<unsigned char> scope_;  // empty: every unknown in scope
  std::vector<std::pair<int, int>> grown_;  // coordinates added on misses

  std::shared_ptr<const linalg::SparsePattern> pattern_;
  linalg::SparseMatrixD a0_;  // baseline
  linalg::SparseMatrixD a_;   // per-iteration copy
  linalg::SlotMemo lin_memo_;  // baseline stamp slots (once per solve)
  linalg::SlotMemo nl_memo_;   // nonlinear restamp slots (per iteration)
  bool lin_memo_warm_ = false;
  bool nl_memo_warm_ = false;
  linalg::SparseLuD lu_;
  bool lu_warm_ = false;

  linalg::Vector b0_;     // baseline RHS (linear contributions)
  linalg::Vector b_;      // per-iteration RHS
  linalg::Vector x_new_;  // Newton update target
};

/// Real-valued MNA engine: damped Newton solves for DC and transient.
///
/// Construct once per analysis run and reuse across solves; the pattern
/// and symbolic factorization are rebuilt automatically when
/// Circuit::revision() changes (an element was added and the circuit
/// re-finalized).
class MnaEngine {
 public:
  explicit MnaEngine(Circuit& c) : circuit_(&c), core_(c, stats_) {}
  // The core points at stats_: copies would share it.
  MnaEngine(const MnaEngine&) = delete;
  MnaEngine& operator=(const MnaEngine&) = delete;

  /// One damped Newton solve at a fixed context.  Identical contract to
  /// the free newton_solve(): seeds from `x` (resized/zeroed if the
  /// dimension is wrong), returns iterations used, throws
  /// ConvergenceError on failure.  `extra_gdiag` adds a conductance
  /// from every node to ground on top of opt.gmin (gmin stepping).
  int newton(const StampContext& ctx, linalg::Vector& x,
             const NewtonOptions& opt, double extra_gdiag = 0.0);

  const MnaStats& stats() const { return stats_; }

  Circuit& circuit() { return *circuit_; }

 private:
  Circuit* circuit_;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  MnaStats stats_;
  NewtonCore core_;
};

/// Complex-valued engine for the small-signal analyses (AC sweep, noise
/// transfer functions).  Per frequency: restamp values over the frozen
/// pattern, numeric refactor, then solve any number of right-hand
/// sides.
class AcEngine {
 public:
  explicit AcEngine(Circuit& c) : circuit_(&c) {}

  /// Assembles and factors the small-signal system at angular frequency
  /// `omega`.  rhs() is zeroed; source stamps (AC magnitudes) land
  /// there during assembly.
  void assemble(double omega);

  /// The RHS accumulated by the last assemble() (AC source stamps).
  const linalg::ComplexVector& rhs() const { return b_; }

  /// Solves A x = b for the system of the last assemble().
  void solve(const linalg::ComplexVector& b, linalg::ComplexVector& x) {
    lu_.solve(b, x);
  }

  const MnaStats& stats() const { return stats_; }

 private:
  void prepare();

  Circuit* circuit_;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  MnaStats stats_;

  linalg::ComplexVector b_;
  std::vector<std::pair<int, int>> grown_;  // coordinates added on misses
  std::shared_ptr<const linalg::SparsePattern> pattern_;
  linalg::SparseMatrixZ a_;
  linalg::SlotMemo memo_;
  linalg::SparseLuZ lu_;
  bool lu_warm_ = false;
  bool memo_warm_ = false;
};

}  // namespace si::spice
