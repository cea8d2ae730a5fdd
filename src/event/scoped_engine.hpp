// Scope-restricted MNA engine for the event-driven transient.
//
// A "scope" is the set of MNA unknowns belonging to the currently
// active partition blocks (plus the always-active rail block).  The
// engine solves the SAME full-size system as the monolithic MnaEngine,
// restricted to the scope by the exact Dirichlet reduction:
//
//   - rows of out-of-scope unknowns become identity equations
//     (A[r,r] = 1, b[r] = x[r]) — the unknown holds its value;
//   - out-of-scope columns of in-scope rows are condensed onto the RHS
//     through the held iterate (b[r] -= a_rc * x[c]).
//
// When every block is active the restriction is the identity and the
// assembled system is bit-identical to the monolithic engine's, which
// is what makes the event engine's solved steps agree with the full
// solve to the last digit.  Each distinct active-block mask gets its
// own spice::NewtonCore (sparsity pattern, slot memos, symbolic
// factorization), so steady-state scheduling (the same few masks
// recurring every clock period) runs the allocation-free
// pattern-cached hot path.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "event/partition.hpp"
#include "spice/mna.hpp"

namespace si::event {

class ScopedMnaEngine {
 public:
  ScopedMnaEngine(spice::Circuit& c, const CircuitPartition& p);
  // Every scope's core points at stats_: copies would share it.
  ScopedMnaEngine(const ScopedMnaEngine&) = delete;
  ScopedMnaEngine& operator=(const ScopedMnaEngine&) = delete;

  /// One damped Newton solve restricted to the blocks with
  /// active[b] != 0 (block 0 is always included).  `x` is the full MNA
  /// vector; only in-scope entries are updated.  Same contract as
  /// MnaEngine::newton otherwise (returns iterations, throws
  /// ConvergenceError).
  int newton(const spice::StampContext& ctx, linalg::Vector& x,
             const spice::NewtonOptions& opt,
             const std::vector<unsigned char>& active);

  /// Calls Element::accept on every in-scope element of the mask (after
  /// a successful newton() with the same mask).  Out-of-scope elements
  /// keep their companion state frozen — holding a latent block means
  /// holding its reactive history too, so the hold is independent of how
  /// many steps it lasts.
  void accept_scope(const std::vector<unsigned char>& active,
                    const spice::SolutionView& sol,
                    const spice::StampContext& ctx);

  /// Aggregate stats over all scope states.
  const spice::MnaStats& stats() const { return stats_; }

  /// Number of distinct active-block masks solved so far.
  std::size_t scope_states() const { return states_.size(); }

 private:
  /// The restricted system of one active-block mask, built on first use.
  spice::NewtonCore& state_for(const std::vector<unsigned char>& active,
                               const spice::StampContext& ctx);

  spice::Circuit* circuit_;
  const CircuitPartition* partition_;
  std::uint64_t revision_ = 0;
  spice::MnaStats stats_;

  /// Rows each element writes (terminal node indices + branch rows);
  /// an element is in scope iff any of its rows is.
  std::vector<std::vector<int>> element_rows_;

  /// Orders active-block masks (all of one size) element by element.
  /// vector's own operator< goes through a memcmp that GCC 12 misreads
  /// at -O3 (-Wstringop-overread).
  struct MaskLess {
    bool operator()(const std::vector<unsigned char>& a,
                    const std::vector<unsigned char>& b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) return a[i] < b[i];
      return false;
    }
  };

  /// Per-active-mask solver state: the restricted system's pattern,
  /// matrices, memos and factorization, plus the in-scope element lists.
  std::map<std::vector<unsigned char>, spice::NewtonCore, MaskLess> states_;
};

}  // namespace si::event
