// Tier-1 solver-parity assertions against an independent oracle: on the
// paper's Fig. 1 memory cell, Table 1 delay line and Table 2 modulator
// core, the sparse LU every engine uses must solve the assembled MNA
// system like the dense partial-pivot linalg::lu does, at the DC
// operating point and at transient steps, and the engine's converged
// solution must be a fixed point of that oracle's Newton step.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mna_test_util.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

/// `x` (a converged engine solve at `ctx`) against the oracle: SparseLu
/// and linalg::lu agree on the system assembled at `x`, and their next
/// Newton iterate stays on `x`.
void expect_oracle_fixed_point(Circuit& c, const StampContext& ctx,
                               const si::linalg::Vector& x) {
  const auto step = si::test::oracle_step(c, ctx, x);
  ASSERT_EQ(step.dense.size(), x.size());
  EXPECT_LT(si::test::max_rel_diff(step.sparse, step.dense), 1e-10);
  for (std::size_t i = 0; i + 1 < c.node_count(); ++i)
    EXPECT_NEAR(x[i], step.dense[i], 1e-9 * (1.0 + std::abs(x[i])))
        << "node " << c.node_name(static_cast<NodeId>(i + 1));
}

/// DC operating point, then `steps` fixed transient steps of `dt`
/// through one MnaEngine, each checked against the oracle.
void check_against_oracle(Circuit& c, double dt, int steps) {
  MnaEngine engine(c);
  DcOptions dco;
  dco.erc_gate = false;
  si::linalg::Vector x = dc_operating_point(c, engine, dco).x;
  StampContext ctx;
  expect_oracle_fixed_point(c, ctx, x);

  NewtonOptions nopt;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = dt;
  for (int k = 1; k <= steps; ++k) {
    ctx.time = k * dt;
    engine.newton(ctx, x, nopt);
    expect_oracle_fixed_point(c, ctx, x);
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  }
}

TEST(SolverParity, Table1DelayLineTransient) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_line_chain(c, 3, opt, "dl_");
  const double T = opt.pair.clock_period;
  c.add<CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<SineWave>(0.0, 5e-6, 1.0 / (8.0 * T), 0.0));
  check_against_oracle(c, T / 200.0, 60);
}

TEST(SolverParity, Table2ModulatorTransient) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  ModulatorCoreOptions opt;
  const auto h = build_modulator_core(c, 1, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  c.add<CurrentSource>(
      "Iinp", c.ground(), h.in_p,
      std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T), 0.0));
  c.add<CurrentSource>(
      "Iinm", c.ground(), h.in_m,
      std::make_unique<SineWave>(0.0, -4e-6, 1.0 / (8.0 * T), 0.0));
  check_against_oracle(c, T / 200.0, 60);
}

TEST(SolverParity, Fig1MemoryCellMatchesLuOracle) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  MemoryPairOptions opt;
  const auto h = build_class_ab_memory_pair(c, opt, "m_");
  c.add<CurrentSource>("Iin", c.ground(), h.d, 8e-6);
  check_against_oracle(c, opt.clock_period / 500.0, 120);
}

}  // namespace
