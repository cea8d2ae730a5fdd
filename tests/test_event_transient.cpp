// Event-engine parity and latency-exploitation assertions: the
// event-driven multi-rate engine (src/event) must reproduce the
// monolithic engine's waveforms on the paper's Table 1 / Table 2
// workloads byte-identically at the %.6g precision the bench tables
// emit, honor the SI_TRANSIENT override, skip work on a quiescent
// DC-hold run, and fall back to the monolithic engine under adaptive
// stepping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "mna_test_util.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

std::string fmt6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// The parity contract between the engines: identical time grids and,
/// per sample, agreement at %.6g (the scoped Dirichlet restriction is
/// algebraically exact; latency holds may differ below the quiescence
/// tolerance, far under the 1e-6 relative granularity of %.6g).
void expect_engine_parity(const TransientResult& mono,
                          const TransientResult& event) {
  ASSERT_EQ(mono.time.size(), event.time.size());
  ASSERT_EQ(mono.signals.size(), event.signals.size());
  for (std::size_t k = 0; k < mono.time.size(); ++k)
    ASSERT_DOUBLE_EQ(mono.time[k], event.time[k]) << "sample " << k;
  for (const auto& [label, mv] : mono.signals) {
    const auto& ev = event.signal(label);
    ASSERT_EQ(mv.size(), ev.size()) << label;
    for (std::size_t k = 0; k < mv.size(); ++k) {
      EXPECT_NEAR(mv[k], ev[k], 2e-6) << label << " sample " << k;
      EXPECT_EQ(fmt6(mv[k]), fmt6(ev[k])) << label << " sample " << k;
    }
  }
}

TransientResult run_table1_chain(TransientEngine engine) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_line_chain(c, 3, opt, "dl_");
  const double T = opt.pair.clock_period;
  c.add<CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<SineWave>(0.0, 5e-6, 1.0 / (8.0 * T), 0.0));
  TransientOptions topt;
  topt.t_stop = 2.0 * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.in));
  tr.probe_voltage(c.node_name(h.out));
  return tr.run();
}

TransientResult run_table2_modulator(TransientEngine engine,
                                     bool dc_hold = false,
                                     double periods = 1.0,
                                     double quiescent_tol = 1e-8) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  ModulatorCoreOptions opt;
  const auto h = build_modulator_core(c, 1, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  if (dc_hold) {
    c.add<CurrentSource>("Iinp", c.ground(), h.in_p,
                         std::make_unique<DcWave>(1e-6));
    c.add<CurrentSource>("Iinm", c.ground(), h.in_m,
                         std::make_unique<DcWave>(-1e-6));
  } else {
    c.add<CurrentSource>(
        "Iinp", c.ground(), h.in_p,
        std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T), 0.0));
    c.add<CurrentSource>(
        "Iinm", c.ground(), h.in_m,
        std::make_unique<SineWave>(0.0, -4e-6, 1.0 / (8.0 * T), 0.0));
  }
  TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  topt.event_quiescent_tol = quiescent_tol;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  tr.probe_voltage(c.node_name(h.out_m));
  return tr.run();
}

TEST(EventParity, Table1DelayLineTransient) {
  const auto mono = run_table1_chain(TransientEngine::kMonolithic);
  const auto event = run_table1_chain(TransientEngine::kEvent);
  EXPECT_GT(event.event_blocks, 2u);
  EXPECT_GT(event.event_block_solves, 0u);
  EXPECT_EQ(mono.event_blocks, 0u);
  expect_engine_parity(mono, event);
}

TEST(EventParity, Table2ModulatorTransient) {
  const auto mono = run_table2_modulator(TransientEngine::kMonolithic);
  const auto event = run_table2_modulator(TransientEngine::kEvent);
  EXPECT_GT(event.event_blocks, 2u);
  expect_engine_parity(mono, event);
}

/// SI_TRANSIENT selects the engine when the request is kAuto; an
/// explicit request wins over the environment.
TEST(EventEngine, EnvOverrideSelectsEngine) {
  std::string saved;
  bool had = false;
  if (const char* v = std::getenv("SI_TRANSIENT")) {
    saved = v;
    had = true;
  }

  setenv("SI_TRANSIENT", "event", 1);
  EXPECT_EQ(transient_engine_from_env(), TransientEngine::kEvent);
  EXPECT_EQ(resolve_engine(TransientEngine::kAuto, false),
            TransientEngine::kEvent);
  EXPECT_EQ(resolve_engine(TransientEngine::kMonolithic, false),
            TransientEngine::kMonolithic);
  const auto via_env = run_table1_chain(TransientEngine::kAuto);
  EXPECT_GT(via_env.event_blocks, 0u) << "kAuto must follow SI_TRANSIENT";

  setenv("SI_TRANSIENT", "monolithic", 1);
  EXPECT_EQ(transient_engine_from_env(), TransientEngine::kMonolithic);
  const auto mono = run_table1_chain(TransientEngine::kAuto);
  EXPECT_EQ(mono.event_blocks, 0u);

  if (had)
    setenv("SI_TRANSIENT", saved.c_str(), 1);
  else
    unsetenv("SI_TRANSIENT");
}

/// Adaptive runs are fixed to the monolithic engine: the event engine
/// works a fixed grid, so resolve_engine must never hand it an adaptive
/// request, even when SI_TRANSIENT asks for it.
TEST(EventEngine, AdaptiveResolvesMonolithic) {
  EXPECT_EQ(resolve_engine(TransientEngine::kEvent, true),
            TransientEngine::kMonolithic);
  EXPECT_EQ(resolve_engine(TransientEngine::kAuto, true),
            TransientEngine::kMonolithic);
}

/// The latency-exploitation scenario: with DC inputs the modulator
/// settles into a steady state where re-sampling reproduces the held
/// values, so the engine must start skipping block solves — and whole
/// steps — while staying within the quiescence tolerance of the
/// monolithic waveforms.
TEST(EventEngine, DcHoldExploitsLatency) {
  const double periods = 20.0;
  const auto mono = run_table2_modulator(TransientEngine::kMonolithic,
                                         /*dc_hold=*/true, periods);
  const auto event = run_table2_modulator(TransientEngine::kEvent,
                                          /*dc_hold=*/true, periods,
                                          /*quiescent_tol=*/1e-6);
  EXPECT_GT(event.event_block_skips, 0u) << "no block ever went latent";
  EXPECT_GT(event.event_steps_skipped, 0u)
      << "no fully-latent step was skipped";

  ASSERT_EQ(mono.time.size(), event.time.size());
  double maxerr = 0.0;
  for (const auto& [label, mv] : mono.signals) {
    const auto& ev = event.signal(label);
    ASSERT_EQ(mv.size(), ev.size()) << label;
    for (std::size_t k = 0; k < mv.size(); ++k)
      maxerr = std::max(maxerr, std::abs(mv[k] - ev[k]));
  }
  // Held-block error is bounded by the geometric settling tail the
  // quiescence rule budgets for (see DESIGN.md).
  EXPECT_LT(maxerr, 1e-5);
}

/// The event.* telemetry counters must advance across an event-engine
/// run so the bench-smoke schema check has something to validate.
TEST(EventEngine, TelemetryCountersAdvance) {
  si::obs::set_enabled(true);
  si::obs::reset();
  (void)run_table1_chain(TransientEngine::kEvent);
  EXPECT_GE(si::obs::counter("event.runs").value(), 1u);
  EXPECT_GT(si::obs::counter("event.block_solves").value(), 0u);
  EXPECT_GT(si::obs::counter("event.scoped_solves").value(), 0u);
  EXPECT_GT(si::obs::counter("event.events_dispatched").value(), 0u);
  EXPECT_EQ(si::obs::counter("event.full_activations").value(), 0u);
  si::obs::reset();
  si::obs::set_enabled(false);
}

/// The scoped engine shares MnaEngine's pattern growth: a stamp
/// outside a scope's discovered pattern grows that pattern and the
/// step solves on sparse again.  Same LatePathElement scenario as
/// MnaEngine.PatternGrowsOncePerTopologyAndResetsOnEdit, run through
/// the event engine.
TEST(EventEngine, PatternGrowsOnMissOncePerTopology) {
  si::obs::set_enabled(true);
  si::obs::reset();
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.add<Resistor>("R3", d, c.ground(), 1e3);
  c.add<si::test::LatePathElement>("X1", b, d, /*t_on=*/0.45);
  TransientOptions topt;
  topt.t_stop = 1.0;
  topt.dt = 0.1;
  topt.erc_gate = false;
  topt.engine = TransientEngine::kEvent;
  // The bridge turns on without any event, so no block may go latent.
  topt.event_quiescent_tol = 0.0;
  Transient tr(c, topt);
  tr.probe_voltage("b");
  const TransientResult r = tr.run();

  const auto& vb = r.signal("v(b)");
  ASSERT_EQ(vb.size(), r.time.size());
  for (std::size_t k = 0; k < vb.size(); ++k)
    EXPECT_NEAR(vb[k], r.time[k] < 0.45 ? 0.5 : 0.4, 1e-6)
        << "t = " << r.time[k];
#if SI_OBS_ENABLED
  EXPECT_EQ(si::obs::counter("mna.pattern_misses").value(), 1u);
  EXPECT_EQ(si::obs::counter("event.full_activations").value(), 0u);
#endif
  si::obs::reset();
  si::obs::set_enabled(false);
}

}  // namespace
