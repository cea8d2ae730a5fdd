#include <gtest/gtest.h>

#include <cmath>

#include "linalg/sparse.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "spice/op_report.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;

/// Measures the drain current of a single NMOS at given Vgs / Vds.
double nmos_id(double vgs, double vds, const MosfetParams& p) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vg", g, c.ground(), vgs);
  auto& vd = c.add<VoltageSource>("Vd", d, c.ground(), vds);
  (void)vd;
  c.add<Mosfet>("M1", MosType::kNmos, d, g, c.ground(), p);
  dc_operating_point(c);
  const auto* m = dynamic_cast<const Mosfet*>(c.find("M1"));
  return m->id();
}

TEST(Mosfet, CutoffBelowThreshold) {
  MosfetParams p;
  p.vt0 = 0.8;
  EXPECT_NEAR(nmos_id(0.5, 1.0, p), 0.0, 1e-9);
}

TEST(Mosfet, SaturationSquareLaw) {
  MosfetParams p;
  p.w = 10e-6;
  p.l = 1e-6;
  p.kp = 100e-6;
  p.vt0 = 0.8;
  p.lambda = 0.0;
  const double vov = 0.4;
  const double expected = 0.5 * p.beta() * vov * vov;
  EXPECT_NEAR(nmos_id(p.vt0 + vov, 2.0, p), expected, 1e-9);
}

TEST(Mosfet, TriodeRegionCurrent) {
  MosfetParams p;
  p.lambda = 0.0;
  const double vov = 0.5, vds = 0.1;
  const double expected = p.beta() * (vov * vds - 0.5 * vds * vds);
  EXPECT_NEAR(nmos_id(p.vt0 + vov, vds, p), expected, 1e-9);
}

TEST(Mosfet, ContinuousAcrossTriodeSaturationBoundary) {
  MosfetParams p;
  const double vov = 0.3;
  const double below = nmos_id(p.vt0 + vov, vov - 1e-6, p);
  const double above = nmos_id(p.vt0 + vov, vov + 1e-6, p);
  EXPECT_NEAR(below, above, std::abs(above) * 1e-3);
}

TEST(Mosfet, ChannelLengthModulationSlope) {
  MosfetParams p;
  p.lambda = 0.05;
  const double i1 = nmos_id(1.2, 1.0, p);
  const double i2 = nmos_id(1.2, 2.0, p);
  EXPECT_GT(i2, i1);
  EXPECT_NEAR(i2 / i1, (1 + 0.05 * 2.0) / (1 + 0.05 * 1.0), 1e-6);
}

TEST(Mosfet, PmosMirrorsNmosBehaviour) {
  // PMOS with source at VDD conducts when gate is pulled low.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  MosfetParams p;
  p.lambda = 0.0;
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  c.add<VoltageSource>("Vg", g, c.ground(), 3.3 - 1.2);  // Vsg = 1.2
  c.add<VoltageSource>("Vd", d, c.ground(), 1.0);
  c.add<Mosfet>("M1", MosType::kPmos, d, g, vdd, p);
  dc_operating_point(c);
  const auto* m = dynamic_cast<const Mosfet*>(c.find("M1"));
  const double vov = 1.2 - p.vt0;
  // Current flows source->drain: drain current is negative by our
  // drain->source sign convention.
  EXPECT_NEAR(m->id(), -0.5 * p.beta() * vov * vov, 1e-9);
  EXPECT_EQ(m->region(), MosRegion::kSaturation);
}

TEST(Mosfet, SymmetricSourceDrainSwap) {
  // Reverse the terminals: same magnitude, opposite sign of current.
  MosfetParams p;
  p.lambda = 0.0;
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vg", g, c.ground(), 1.3);
  c.add<VoltageSource>("Va", a, c.ground(), -0.2);
  // Device with drain at 'a' (below source potential): conducts backward.
  c.add<Mosfet>("M1", MosType::kNmos, a, g, c.ground(), p);
  dc_operating_point(c);
  const auto* m = dynamic_cast<const Mosfet*>(c.find("M1"));
  EXPECT_LT(m->id(), 0.0);
}

TEST(Mosfet, OperatingPointAccessors) {
  MosfetParams p;
  p.lambda = 0.0;
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vg", g, c.ground(), 1.2);
  c.add<VoltageSource>("Vd", d, c.ground(), 2.0);
  auto& m = c.add<Mosfet>("M1", MosType::kNmos, d, g, c.ground(), p);
  dc_operating_point(c);
  EXPECT_NEAR(m.vgs(), 1.2, 1e-9);
  EXPECT_NEAR(m.vds(), 2.0, 1e-9);
  EXPECT_NEAR(m.vdsat(), 0.4, 1e-9);
  EXPECT_NEAR(m.gm(), p.beta() * 0.4, 1e-9);
}

TEST(Mosfet, GateCapacitanceHoldsChargeWhenSwitchedOff) {
  // The SI memory principle at device level: charge a gate cap through a
  // switch, open the switch, and the gate voltage (hence drain current)
  // holds.
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  const NodeId in = c.node("in");
  MosfetParams p;
  p.lambda = 0.0;
  p.cgs = 0.5e-12;
  c.add<VoltageSource>("Vd", d, c.ground(), 2.0);
  c.add<VoltageSource>("Vin", in, c.ground(), 1.2);
  // Switch closes for the first 1 us, then opens.
  c.add<Switch>("S1", in, g,
                std::make_unique<PulseWave>(1.0, 0.0, 1e-6, 1e-9, 1e-9,
                                            1e-3, 2e-3),
                100.0, 1e15);
  auto& m = c.add<Mosfet>("M1", MosType::kNmos, d, g, c.ground(), p);

  TransientOptions opt;
  opt.t_stop = 5e-6;
  opt.dt = 5e-9;
  Transient tr(c, opt);
  tr.probe_voltage("g");
  const auto res = tr.run();
  const auto& vg = res.signal("v(g)");
  // After opening (t > 1 us), the gate holds 1.2 V.
  EXPECT_NEAR(vg.back(), 1.2, 1e-2);
  EXPECT_NEAR(m.id(), 0.5 * p.beta() * 0.4 * 0.4, 1e-6);
}

TEST(Mosfet, RejectsNonPositiveGeometry) {
  MosfetParams p;
  p.w = -1.0;
  Circuit c;
  EXPECT_THROW(
      c.add<Mosfet>("M1", MosType::kNmos, c.node("d"), c.node("g"),
                    c.ground(), p),
      std::invalid_argument);
}


TEST(Mosfet, OpReportCollectsDevices) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  MosfetParams p;
  c.add<Mosfet>("M1", MosType::kNmos, g, g, c.ground(), p);
  c.add<Resistor>("Rb", vdd, g, 50e3);
  const DcResult r = dc_operating_point(c);
  const auto report = si::spice::op_report(c, r.x);
  ASSERT_EQ(report.devices.size(), 1u);
  EXPECT_EQ(report.devices[0].name, "M1");
  EXPECT_EQ(report.device("M1").region, MosRegion::kSaturation);
  EXPECT_GT(report.device("M1").gm, 0.0);
  EXPECT_TRUE(report.all_saturated());
  EXPECT_GT(report.supply_power, 0.0);
  EXPECT_THROW(report.device("nope"), std::out_of_range);
  EXPECT_EQ(si::spice::region_name(MosRegion::kTriode), "triode");
}

// The matrix values and RHS that `m` alone stamps at the iterate
// (vd, vg, vs) under `ctx`, over the pattern it records itself.
struct LoneStamp {
  std::vector<double> a;
  si::linalg::Vector b;
};

LoneStamp stamp_alone(Circuit& c, Mosfet& m, const StampContext& ctx,
                      double vd, double vg, double vs) {
  c.finalize();
  const std::size_t n = c.system_size();
  si::linalg::Vector x(n, 0.0);
  x[static_cast<std::size_t>(m.drain() - 1)] = vd;
  x[static_cast<std::size_t>(m.gate() - 1)] = vg;
  x[static_cast<std::size_t>(m.source() - 1)] = vs;
  si::linalg::PatternBuilder rec(static_cast<int>(n));
  si::linalg::Vector scratch(n, 0.0);
  RealStamper record(c, rec, scratch, x);
  m.stamp(record, ctx);
  si::linalg::SparseMatrixD a(rec.build());
  LoneStamp out{{}, si::linalg::Vector(n, 0.0)};
  RealStamper s(c, a, out.b, x);
  m.stamp(s, ctx);
  out.a = a.values();
  return out;
}

// A device on nodes d, g, s of its own circuit.
Mosfet& lone_device(Circuit& c, MosType type, const MosfetParams& p) {
  return c.add<Mosfet>("M1", type, c.node("d"), c.node("g"), c.node("s"), p);
}

TEST(Mosfet, SetParamsStampsLikeAFreshDevice) {
  MosfetParams p1;
  p1.cgs = 0.1e-12;
  p1.cgd = 0.02e-12;
  MosfetParams p2 = p1;
  p2.w = 7e-6;
  p2.l = 1.3e-6;
  p2.kp = 83e-6;
  p2.vt0 = 0.71;
  p2.lambda = 0.07;
  p2.cgs = 0.13e-12;
  p2.cgd = 0.03e-12;
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 1e-9;
  for (const MosType type : {MosType::kNmos, MosType::kPmos}) {
    const double sgn = type == MosType::kNmos ? 1.0 : -1.0;
    Circuit ca, cb, cc;
    Mosfet& redrawn = lone_device(ca, type, p1);
    redrawn.set_params(p2);
    Mosfet& fresh = lone_device(cb, type, p2);
    Mosfet& old = lone_device(cc, type, p1);
    const LoneStamp got =
        stamp_alone(ca, redrawn, ctx, sgn * 1.5, sgn * 1.2, sgn * 0.1);
    const LoneStamp want =
        stamp_alone(cb, fresh, ctx, sgn * 1.5, sgn * 1.2, sgn * 0.1);
    const LoneStamp before =
        stamp_alone(cc, old, ctx, sgn * 1.5, sgn * 1.2, sgn * 0.1);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_NE(got.a, before.a);  // the draw did change the stamp
  }
}

TEST(Mosfet, GettersBeforeAcceptReadConstructorState) {
  MosfetParams depletion;
  depletion.vt0 = -0.5;  // conducts at zero volts: must not be evaluated
  for (const MosType type : {MosType::kNmos, MosType::kPmos}) {
    for (const MosfetParams& p : {MosfetParams{}, depletion}) {
      Circuit c;
      const Mosfet& m = lone_device(c, type, p);
      EXPECT_EQ(m.id(), 0.0);
      EXPECT_FALSE(std::signbit(m.id()));  // +0.0, also for a PMOS
      EXPECT_EQ(m.gm(), 0.0);
      EXPECT_EQ(m.gds(), 0.0);
      EXPECT_EQ(m.vgs(), 0.0);
      EXPECT_EQ(m.vds(), 0.0);
      EXPECT_EQ(m.vdsat(), 0.0);
      EXPECT_EQ(m.region(), MosRegion::kCutoff);
    }
  }
}

}  // namespace
