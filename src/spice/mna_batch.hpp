// Structure-shared DC Newton engine for Monte-Carlo: many parameter
// draws of ONE topology are solved one after another over a single
// sparsity pattern, a single nominal symbolic factorization, and one
// pair of slot memos, so a trial costs numeric refactors only.
//
// Bit-identity contract (see DESIGN.md "Monte-Carlo DC contract"): the
// NOMINAL circuit (the parameters in place when prepare() first runs,
// keyed on Circuit::revision()) is solved once with the full
// gmin-stepping ladder; its operating point seeds every trial's Newton
// iteration and its first-iteration matrix freezes the shared symbolic
// factorization — both independent of trials, chunking, and thread
// count.  A trial whose refactor pivot drifts re-pivots on its own
// values, and the nominal symbolic is restored before the next trial,
// so every solve_scalar() result is a pure function of the trial's
// seed.  That is what lets monte_carlo_dc promise bit-identical
// samples at any batch width and thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "spice/dc.hpp"

namespace si::spice {

/// See the file comment.  Construct once per circuit and reuse across
/// trials; the pattern, the nominal symbolic factorization, and all
/// workspaces are rebuilt only when Circuit::revision() changes.  The
/// engine always uses the sparse representation regardless of system
/// size.
class McDcEngine {
 public:
  struct Options {
    NewtonOptions newton;
    /// Precomputed nominal operating point (system_size() entries, the
    /// dc_operating_point solution of the pristine circuit with the
    /// engine's NewtonOptions and erc_gate off).  When its size matches
    /// the system, prepare() adopts it instead of re-running the gmin
    /// ladder — the Monte-Carlo driver computes the ladder once and
    /// shares it across every worker context, which cannot change
    /// results because the ladder is a pure function of the pristine
    /// build.  Empty (the default) means prepare() solves it itself.
    linalg::Vector nominal_seed;
  };

  McDcEngine(Circuit& c, Options opt) : circuit_(&c), opt_(std::move(opt)) {}
  explicit McDcEngine(Circuit& c) : McDcEngine(c, Options{}) {}

  /// Solves one trial over the shared nominal symbolic factorization.
  /// `apply(seed)` must (re)apply that trial's parameter draw to the
  /// circuit — values only, no topology edits — and is invoked
  /// immediately before every stamping pass, so it must be a pure
  /// function of the seed.  Pivot drift re-runs the pivoting
  /// factorization on the trial's own values (the symbolic is restored
  /// from the nominal matrix before the next trial).  Returns the
  /// iterations used; throws ConvergenceError.
  int solve_scalar(std::uint64_t seed,
                   const std::function<void(std::uint64_t)>& apply,
                   linalg::Vector& x);

 private:
  void prepare();
  StampContext dc_context() const;

  Circuit* circuit_;
  Options opt_;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;

  std::vector<Element*> linear_;
  std::vector<Element*> nonlinear_;
  std::size_t n_ = 0;
  std::size_t n_nodes_ = 0;

  std::shared_ptr<const linalg::SparsePattern> pattern_;
  linalg::Vector x_nominal_;  // nominal operating point: every trial's
                              // Newton seed and the symbolic reference
                              // stamping point
  linalg::SparseMatrixD a_nominal_;  // first-iteration nominal system
  linalg::SparseMatrixD a0_;         // per-trial linear baseline
  linalg::SparseMatrixD a_;          // per-iteration values
  linalg::SparseLuD lu_;
  bool repivoted_ = false;  // lu_ holds a trial's own pivot order
  linalg::SlotMemo lin_memo_;
  linalg::SlotMemo nl_memo_;
  bool lin_memo_warm_ = false;
  bool nl_memo_warm_ = false;
  linalg::Vector b0_;
  linalg::Vector b_;
  linalg::Vector x_new_;
};

}  // namespace si::spice
