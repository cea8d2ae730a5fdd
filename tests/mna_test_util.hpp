// Helpers shared by the MNA engine, event engine and solver-parity
// tests:
//  - oracle_step(): the dense linalg::lu oracle for the sparse MNA
//    solve.  It assembles a circuit's full MNA system at an iterate —
//    every element linearized at `x`, gmin on the node diagonals, the
//    system a Newton iteration factors — and solves it twice: with
//    SparseLu (the engines' only solver) and with the dense
//    partial-pivot linalg::lu on SparseMatrix::to_dense().
//  - LatePathElement: an element that breaks the stamp-pattern
//    contract on purpose, to exercise pattern growth.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "spice/circuit.hpp"

namespace si::test {

struct OracleStep {
  linalg::Vector sparse;  ///< next iterate, SparseLu
  linalg::Vector dense;   ///< next iterate, dense linalg::lu
};

inline OracleStep oracle_step(spice::Circuit& c,
                              const spice::StampContext& ctx,
                              const linalg::Vector& x) {
  c.finalize();
  const std::size_t n = c.system_size();
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::Vector scratch_b(n, 0.0);
  spice::RealStamper r(c, rec, scratch_b, x);
  for (const auto& e : c.elements()) e->stamp(r, ctx);
  linalg::SparseMatrixD a(rec.build(/*symmetrize=*/true));
  linalg::Vector b(n, 0.0);
  spice::RealStamper s(c, a, b, x);
  for (const auto& e : c.elements()) e->stamp(s, ctx);
  for (std::size_t i = 0; i + 1 < c.node_count(); ++i)
    a.add(static_cast<int>(i), static_cast<int>(i), ctx.gmin);

  OracleStep out;
  linalg::SparseLuD lu;
  lu.factor(a);
  lu.solve(b, out.sparse);
  out.dense = linalg::solve(a.to_dense(), b);
  return out;
}

/// Deliberately violates the stamp-pattern contract: bridges its two
/// nodes with 1 mS only once a transient reaches t_on, so pattern
/// discovery before t_on never sees the (a, b) coordinates and the
/// first post-t_on stamp raises PatternMissError.
class LatePathElement : public spice::Element {
 public:
  LatePathElement(std::string name, spice::NodeId a, spice::NodeId b,
                  double t_on)
      : Element(std::move(name)), a_(a), b_(b), t_on_(t_on) {}

  std::vector<spice::Terminal> terminals() const override {
    return {{a_, "p", false}, {b_, "m", false}};
  }

  void stamp(spice::RealStamper& s, const spice::StampContext& ctx) override {
    if (ctx.mode == spice::AnalysisMode::kTransient && ctx.time >= t_on_)
      s.conductance(a_, b_, 1e-3);
  }

 private:
  spice::NodeId a_, b_;
  double t_on_;
};

/// Largest |u[i] - v[i]| relative to 1 + |v[i]|.
inline double max_rel_diff(const linalg::Vector& u, const linalg::Vector& v) {
  double m = 0.0;
  for (std::size_t i = 0; i < u.size() && i < v.size(); ++i)
    m = std::fmax(m, std::abs(u[i] - v[i]) / (1.0 + std::abs(v[i])));
  return m;
}

}  // namespace si::test
