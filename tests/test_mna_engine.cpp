// MnaEngine behavior: parity with the dense linalg::lu oracle on
// transistor-level netlists, symbolic-reuse accounting, pattern-cache
// invalidation on circuit edits, and pattern growth on a stamp outside
// the discovered pattern.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "mna_test_util.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

TEST(SolverSelect, SolverEnvIsIgnored) {
  // Sparse is the only representation: the retired SI_SOLVER variable
  // is never read (not even to reject junk), and the retired selector
  // resolves to sparse for every spelling and size.
  for (const char* v : {"dense", "bogus"}) {
    setenv("SI_SOLVER", v, 1);
    Circuit c;
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    MemoryPairOptions opt;
    opt.switches_always_on = true;
    build_class_ab_memory_pair(c, opt, "m_");
    MnaEngine engine(c);
    DcOptions dco;
    EXPECT_NO_THROW(dc_operating_point(c, engine, dco)) << v;
    EXPECT_EQ(engine.stats().pattern_builds, 1u);
    EXPECT_GE(engine.stats().symbolic_factors, 1u);
  }
  unsetenv("SI_SOLVER");
  for (SolverKind k : {SolverKind::kAuto, SolverKind::kDense,
                       SolverKind::kSparse, SolverKind::kSchur})
    for (std::size_t n : {2u, 2178u})
      EXPECT_EQ(resolve_solver(k, n), SolverKind::kSparse);
}

/// Builds one Table 2 modulator-core circuit with supply and a small
/// differential input.
ModulatorCoreHandles build_modulator_fixture(Circuit& c, int sections) {
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  ModulatorCoreOptions opt;
  const auto h = build_modulator_core(c, sections, opt, "mod_");
  c.add<CurrentSource>("Iinp", c.ground(), h.in_p, 4e-6);
  c.add<CurrentSource>("Iinm", c.ground(), h.in_m, -4e-6);
  return h;
}

TEST(MnaEngine, DenseSparseDcParityOnModulatorCore) {
  // The engine's DC point on a one-section core (below the size where
  // sparse used to be the default) against the dense linalg::lu
  // oracle: one more Newton step from the converged point, solved both
  // ways, must stay on it.
  Circuit c;
  build_modulator_fixture(c, 1);
  MnaEngine engine(c);
  DcOptions opt;
  opt.erc_gate = false;
  const auto x = dc_operating_point(c, engine, opt).x;
  StampContext ctx;
  const auto step = si::test::oracle_step(c, ctx, x);
  ASSERT_EQ(step.dense.size(), x.size());
  EXPECT_LT(si::test::max_rel_diff(step.sparse, step.dense), 1e-10);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], step.dense[i], 1e-9) << "unknown " << i;
}

TEST(MnaEngine, SymbolicFactorizationReusedAcrossTransientSteps) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_stage(c, opt, "s_");
  c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
  c.finalize();

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  si::linalg::Vector x;
  engine.newton(ctx, x, nopt);
  {
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  }

  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = opt.pair.clock_period / 200.0;
  const int steps = 40;
  for (int k = 1; k <= steps; ++k) {
    ctx.time = k * ctx.dt;
    engine.newton(ctx, x, nopt);
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  }

  const MnaStats& st = engine.stats();
  EXPECT_EQ(st.pattern_builds, 1u);
  // One pivoting factorization (plus at most a rare pivot-drift rescue);
  // every other iteration reuses the frozen pattern numerically.
  EXPECT_LE(st.symbolic_factors, 2u);
  EXPECT_GE(st.numeric_refactors, static_cast<std::uint64_t>(steps));
  EXPECT_EQ(st.workspace_allocs, 1u);
}

// The device-stamping layer: stamp_baseline() + assemble() time lands
// in MnaStats::assemble_ns while telemetry is on, and reaches the
// mna.assemble timer once per engine call; off, the clock is not read.
TEST(MnaEngine, AssembleTimerRecordsDeviceStampingOncePerCall) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_stage(c, opt, "s_");
  c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
  c.finalize();

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  si::linalg::Vector x;
  si::obs::set_enabled(false);
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().assemble_ns, 0u);
#if SI_OBS_ENABLED
  si::obs::set_enabled(true);
  si::obs::Timer& timer = si::obs::timer("mna.assemble");
  const std::uint64_t calls_before = timer.count();
  const std::uint64_t ns_before = timer.total_ns();
  engine.newton(ctx, x, nopt);
  engine.newton(ctx, x, nopt);
  si::obs::set_enabled(false);
  EXPECT_GT(engine.stats().assemble_ns, 0u);
  EXPECT_EQ(timer.count() - calls_before, 2u);
  EXPECT_EQ(timer.total_ns() - ns_before, engine.stats().assemble_ns);
#endif
}

TEST(MnaEngine, PatternCacheInvalidatedOnCircuitEdit) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.finalize();

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  si::linalg::Vector x;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
  EXPECT_NEAR(x[b - 1], 0.5, 1e-8);  // gmin shifts the ideal value slightly

  // Edit: new element, new node, re-finalize — the engine must rebuild
  // its pattern and symbolic factorization on the next solve.
  const NodeId d = c.node("d");
  c.add<Resistor>("R3", b, d, 1e3);
  c.add<Resistor>("R4", d, c.ground(), 1e3);
  c.finalize();
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  // Divider now 1k into (1k + 2k || ...): check against the dense
  // linalg::lu oracle on the edited circuit.
  const auto step = si::test::oracle_step(c, ctx, x);
  ASSERT_EQ(x.size(), step.dense.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], step.dense[i], 1e-12);
  EXPECT_NEAR(x[b - 1], 0.4, 1e-8);
}

using si::test::LatePathElement;

TEST(MnaEngine, PatternGrowsOncePerTopologyAndResetsOnEdit) {
  si::obs::set_enabled(true);
#if SI_OBS_ENABLED
  si::obs::Counter& misses = si::obs::counter("mna.pattern_misses");
  const std::uint64_t misses_before = misses.value();
#endif

  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.add<Resistor>("R3", d, c.ground(), 1e3);
  c.add<LatePathElement>("X1", b, d, /*t_on=*/0.5);
  c.finalize();

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 1e-3;
  si::linalg::Vector x;

  // Before t_on the discovered pattern is complete: no miss.
  ctx.time = 1e-3;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 0u);
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
  EXPECT_NEAR(x[b - 1], 0.5, 1e-6);

  // Crossing t_on stamps outside the frozen pattern: the engine grows
  // the pattern by the missed coordinate and solves on sparse again;
  // the miss is counted, not silent.
  ctx.time = 1.0;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
#if SI_OBS_ENABLED
  EXPECT_EQ(misses.value(), misses_before + 1);
#endif
  // b now loaded by R2 || (1k bridge + R3) = 1k || 2k.
  EXPECT_NEAR(x[b - 1], 0.4, 1e-6);

  // Same topology: the grown pattern holds the coordinate, so no new
  // miss and no rebuild.
  ctx.time = 1.1;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  EXPECT_NEAR(x[b - 1], 0.4, 1e-6);

  // Edit the circuit (revision bump): the pattern is rediscovered from
  // scratch at a post-t_on time, so it holds the bridge without a miss.
  c.add<Resistor>("R4", d, c.ground(), 1e6);
  c.finalize();
  ctx.time = 1.2;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 3u);
#if SI_OBS_ENABLED
  EXPECT_EQ(misses.value(), misses_before + 1);
#endif
  EXPECT_NEAR(x[b - 1], 0.4, 1e-3);  // R4 = 1M barely loads node d

  si::obs::set_enabled(false);
}

/// Small-signal twin of LatePathElement: bridges its nodes only above
/// omega_on, so the AC discovery pass (at omega = 1) misses (a, b).
class LateAcPathElement : public Element {
 public:
  LateAcPathElement(std::string name, NodeId a, NodeId b, double omega_on)
      : Element(std::move(name)), a_(a), b_(b), omega_on_(omega_on) {}

  std::vector<Terminal> terminals() const override {
    return {{a_, "p", false}, {b_, "m", false}};
  }
  void stamp(RealStamper&, const StampContext&) override {}
  void stamp_ac(ComplexStamper& s, double omega) const override {
    if (omega > omega_on_) s.admittance(a_, b_, 1e-3);
  }

 private:
  NodeId a_, b_;
  double omega_on_;
};

TEST(AcEngine, PatternGrowsOncePerTopology) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0).set_ac_magnitude(1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.add<Resistor>("R3", d, c.ground(), 1e3);
  c.add<LateAcPathElement>("X1", b, d, /*omega_on=*/10.0);
  c.finalize();

  AcEngine engine(c);
  si::linalg::ComplexVector x;
  engine.assemble(1.0);
  engine.solve(engine.rhs(), x);
  EXPECT_NEAR(std::abs(x[b - 1]), 0.5, 1e-9);
  EXPECT_EQ(engine.stats().pattern_misses, 0u);

  // Above omega_on the bridge stamps outside the pattern: it grows and
  // the frequency point solves on sparse with b loaded by 1k || 2k.
  engine.assemble(100.0);
  engine.solve(engine.rhs(), x);
  EXPECT_NEAR(std::abs(x[b - 1]), 0.4, 1e-9);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);

  engine.assemble(200.0);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
}

TEST(DcSweep, WarmStartMatchesPerPointColdSolves) {
  auto build = [](Circuit& c) {
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    MemoryPairOptions opt;
    opt.switches_always_on = true;
    const auto h = build_class_ab_memory_pair(c, opt, "m_");
    return h;
  };

  std::vector<double> levels;
  for (int k = -5; k <= 5; ++k) levels.push_back(k * 2e-6);

  // Warm-started sweep (shared engine, previous point as initial guess).
  Circuit cs;
  const auto hs = build(cs);
  auto& iin = cs.add<CurrentSource>("Iin", cs.ground(), hs.d, 0.0);
  const auto swept = dc_sweep(
      cs, levels, [&](double v) { iin.set_waveform(std::make_unique<DcWave>(v)); },
      [&](const SolutionView& sol) { return sol.voltage(hs.d); });

  // Cold reference: a fresh circuit and zero-start solve per point.
  for (std::size_t k = 0; k < levels.size(); ++k) {
    Circuit cc;
    const auto hc = build(cc);
    cc.add<CurrentSource>("Iin", cc.ground(), hc.d, levels[k]);
    const auto r = dc_operating_point(cc);
    SolutionView sol(cc, r.x);
    EXPECT_NEAR(swept[k], sol.voltage(hc.d), 1e-7) << "point " << k;
  }
}

}  // namespace
