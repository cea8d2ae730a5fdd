// Bit-identity pins: outputs of the device-level stack recorded to 17
// significant digits (and, for whole waveforms, as an FNV-1a hash of
// the sample bits) and compared with exact equality.  A change to the
// stamping path, the device model's evaluation order or the Newton
// loop that moves any of these by one ulp fails here; a deliberate
// change of the numbers re-records them in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "analysis/mc_batch.hpp"
#include "erc/check.hpp"
#include "si/netlists.hpp"
#include "spice/deck.hpp"
#include "spice/elements.hpp"
#include "spice/op_report.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si;
using namespace si::spice;
namespace nets = si::cells::netlists;

// FNV-1a over the bit patterns of `v`.
std::uint64_t bits_hash(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (double d : v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    for (int k = 0; k < 8; ++k) {
      h ^= (b >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// One clock period of the 8-section modulator core at dt = T/200 under
// a differential sine input, probing the first section's input and the
// core's output.
TEST(PinnedOutputs, ModulatorCoreTransientProbes) {
  Circuit c;
  nets::ModulatorCoreOptions opt;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  const auto h = nets::build_modulator_core(c, 8, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  c.add<CurrentSource>("Iinp", c.ground(), h.in_p,
                       std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T)));
  c.add<CurrentSource>("Iinm", c.ground(), h.in_m,
                       std::make_unique<SineWave>(0.0, -4e-6,
                                                  1.0 / (8.0 * T)));
  TransientOptions topt;
  topt.t_stop = T;
  topt.dt = T / 200.0;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  tr.probe_voltage(c.node_name(h.in_p));
  const TransientResult r = tr.run();
  const auto& out = r.signal("v(" + c.node_name(h.out_p) + ")");
  const auto& in = r.signal("v(" + c.node_name(h.in_p) + ")");
  ASSERT_EQ(out.size(), 201u);

  struct Sample {
    std::size_t i;
    double out, in;
  };
  const Sample pins[] = {
    {0, 2.0207861859140848, 2.9974339878089826},
    {25, 2.0207861914213492, 1.6153628448329502},
    {50, 2.0207861912585536, 1.6696594282046828},
    {75, 2.0207861912277765, 1.6987978759655691},
    {100, 2.020786195849698, 2.6806160104221042},
    {125, 2.0689846739563595, 1.2332735395824066},
    {150, 2.0689845662270541, 1.2346801121731019},
    {175, 2.0689845397172708, 1.2359942780503981},
    {200, 2.0659271258928116, 3.0440519894666789},
  };
  for (const Sample& s : pins) {
    EXPECT_EQ(out[s.i], s.out) << "v(out_p) at sample " << s.i;
    EXPECT_EQ(in[s.i], s.in) << "v(in_p) at sample " << s.i;
  }
  EXPECT_EQ(bits_hash(r.time), 8766395893094267690ull);
  EXPECT_EQ(bits_hash(out), 12622646033024756965ull);
  EXPECT_EQ(bits_hash(in), 4617025838385579512ull);
}

// The sorted samples of a 32-trial Monte-Carlo DC run on the 8-section
// mismatch workload (default seed, batch width and thread count).
TEST(PinnedOutputs, MonteCarloDcSamples) {
  const analysis::McStatistics st =
      analysis::monte_carlo_dc(32, analysis::modulator_mismatch_workload(8));
  const std::vector<double> want = {
    -2.6762203507456359,
    -2.6100296786889565,
    -2.5272336403872337,
    -2.424763715302376,
    -2.126419860841096,
    -2.0624690559394074,
    -1.6705323435596773,
    -1.4893793474759351,
    -0.97690917578778702,
    -0.77459586127172408,
    -0.37941086868184826,
    -0.20353373135893693,
    -0.12495199285549885,
    -0.085414386497512373,
    -0.04868939477592743,
    -0.044522770270179368,
    -0.022684211216853711,
    -0.0071517001192566987,
    -0.0057803825405269293,
    0.042611740593736291,
    0.10401814582314328,
    0.11436354781805491,
    0.11762251511487243,
    0.75967163127727666,
    1.0789830569555088,
    1.4017863147336929,
    1.6441837093236238,
    1.6469082292447328,
    1.6909106755212799,
    1.7132576459291953,
    2.0425750857924552,
    2.6709383800820179,
  };
  EXPECT_EQ(st.samples, want);
  EXPECT_EQ(st.mean, -0.1635269309408369);
  EXPECT_EQ(st.sigma, 1.4723144642400716);
}

// The operating-point report of the Table 1 delay-line deck.
TEST(PinnedOutputs, Table1DelayLineOpReport) {
  std::ifstream f(SI_DECKS_DIR "/table1_delay_line.sp");
  ASSERT_TRUE(f) << "missing deck";
  std::stringstream deck;
  deck << f.rdbuf();
  DeckRunResult run = run_deck(deck.str());
  const OperatingPointReport rep = op_report(run.circuit, run.op.x);
  const DeviceOperatingPoint want[] = {
    {"mn1", MosRegion::kSaturation,
     4.3562251034945985e-05, 1.7177578339971933, 1.7194755918311906,
     0.91775783399719324, 9.4931907789259389e-05, 8.4227944186321957e-07},
    {"mp1", MosRegion::kSaturation,
     -3.1562267634379191e-05, -1.5822421660028065, -1.5805244081688092,
     0.78224216600280649, 8.0696922273213164e-05, 6.1190280627276211e-07},
    {"mn2", MosRegion::kSaturation,
     4.2487379228630616e-05, 1.7064636373950031, 1.7081701010323982,
     0.90646363739500302, 9.3743151905642741e-05, 8.2167632591937951e-07},
    {"mp2", MosRegion::kSaturation,
     -3.2487373160577324e-05, -1.5935363626049968, -1.5918298989676016,
     0.79353636260499671, 8.1879986076324903e-05, 6.2969995877636863e-07},
  };
  ASSERT_EQ(rep.devices.size(), std::size(want));
  for (const DeviceOperatingPoint& w : want) {
    const DeviceOperatingPoint& d = rep.device(w.name);
    EXPECT_EQ(d.region, w.region) << w.name;
    EXPECT_EQ(d.id, w.id) << w.name;
    EXPECT_EQ(d.vgs, w.vgs) << w.name;
    EXPECT_EQ(d.vds, w.vds) << w.name;
    EXPECT_EQ(d.vdsat, w.vdsat) << w.name;
    EXPECT_EQ(d.gm, w.gm) << w.name;
    EXPECT_EQ(d.gds, w.gds) << w.name;
  }
  EXPECT_EQ(rep.supply_power, 0.00021136383598212578);
}

// ---------------------------------------------------------------------
// ERC output pins: the exact text and JSON of the checker on the
// example decks and on built circuits whose diagnostics depend on the
// order rules visit devices, switches and sources.  Every built
// circuit has no deck lines, so the stable line sort keeps emission
// order and any reordering shows here.
// ---------------------------------------------------------------------

struct ErcPin {
  std::string text, json;
};

ErcPin erc_of(const Circuit& c) {
  erc::DiagnosticSink sink;
  erc::check(c, sink);
  return {sink.text(), sink.json()};
}

void expect_pin(const ErcPin& got, const ErcPin& want) {
  EXPECT_EQ(got.text, want.text);
  EXPECT_EQ(got.json, want.json);
}

MosfetParams nmos_params(double w) {
  MosfetParams p;
  p.w = w;
  p.l = 2e-6;
  p.kp = 100e-6;
  p.vt0 = 0.8;
  return p;
}

MosfetParams pmos_params(double w) {
  MosfetParams p = nmos_params(w);
  p.kp = 40e-6;
  return p;
}

const TwoPhaseClock kClock{1e-6, 3.3, 0.0, 10e-9, 40e-9};

/// A class-AB memory cell whose gates are sampled through switches on
/// `phase` (gate switches listed drain-first when `reversed`); returns
/// the drain node.
NodeId switched_cell(Circuit& c, const std::string& k, NodeId vdd,
                     std::unique_ptr<Waveform> (TwoPhaseClock::*phase)()
                         const,
                     bool reversed = false) {
  const NodeId d = c.node("d" + k), gn = c.node("gn" + k),
               gp = c.node("gp" + k);
  c.add<Mosfet>("mn" + k, MosType::kNmos, d, gn, c.ground(),
                nmos_params(4e-6));
  c.add<Mosfet>("mp" + k, MosType::kPmos, d, gp, vdd, pmos_params(10e-6));
  for (const auto& [name, g] : {std::pair{"sn", gn}, std::pair{"sp", gp}}) {
    if (reversed)
      c.add<Switch>(name + k, d, g, (kClock.*phase)(), 1e3, 1e12);
    else
      c.add<Switch>(name + k, g, d, (kClock.*phase)(), 1e3, 1e12);
  }
  c.add<CurrentSource>("ib" + k, c.ground(), d, 8e-6);
  return d;
}

TEST(PinnedOutputs, ErcExampleDecks) {
  const std::pair<const char*, ErcPin> decks[] = {
    {"broken_memory_cell.sp",
     {R"pin(deck:12: error: [si.supply-min] supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn'/'mp' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2)) (fix: raise the supply above 1.7 V or use lower-Vt devices)
deck:19: error: [spice.floating-gate] MOSFET 'mfloat' gate node 'nowhere' has no DC drive (only gate/capacitor terminals attach) (fix: drive the gate from a source, switch, or diode connection)
deck:23: error: [spice.node-island] nodes 'isla', 'islb' form a subcircuit with no path to ground (fix: connect the subcircuit to the rest of the circuit or remove it)
)pin",
      R"pin({"diagnostics":[{"severity":"error","rule":"si.supply-min","message":"supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn'/'mp' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2))","line":12,"element":"mp","fix":"raise the supply above 1.7 V or use lower-Vt devices"},{"severity":"error","rule":"spice.floating-gate","message":"MOSFET 'mfloat' gate node 'nowhere' has no DC drive (only gate/capacitor terminals attach)","line":19,"element":"mfloat","fix":"drive the gate from a source, switch, or diode connection"},{"severity":"error","rule":"spice.node-island","message":"nodes 'isla', 'islb' form a subcircuit with no path to ground","line":23,"element":"","fix":"connect the subcircuit to the rest of the circuit or remove it"}],"notes":0,"warnings":0,"errors":3})pin"}},
    {"memory_cell_ok.sp",
     {R"pin()pin",
      R"pin({"diagnostics":[],"notes":0,"warnings":0,"errors":0})pin"}},
    {"table1_delay_line.sp",
     {R"pin()pin",
      R"pin({"diagnostics":[],"notes":0,"warnings":0,"errors":0})pin"}},
    {"table2_modulator.sp",
     {R"pin()pin",
      R"pin({"diagnostics":[],"notes":0,"warnings":0,"errors":0})pin"}},
    {"table2_modulator_lowvdd.sp",
     {R"pin()pin",
      R"pin({"diagnostics":[],"notes":0,"warnings":0,"errors":0})pin"}},
  };
  for (const auto& [name, want] : decks) {
    std::ifstream f(std::string(SI_DECKS_DIR "/") + name);
    ASSERT_TRUE(f) << name;
    std::stringstream deck;
    deck << f.rdbuf();
    const erc::DeckReport rep = erc::check_deck(deck.str());
    SCOPED_TRACE(name);
    expect_pin({rep.sink.text(), rep.sink.json()}, want);
  }
}

// Two NMOS and two PMOS diodes on one drain: four pairs, visited NMOS
// first in element order, then PMOS in element order.
TEST(PinnedOutputs, ErcTwoPmosOnOneDrain) {
  Circuit c;
  const NodeId vdd = c.node("vdd"), d = c.node("d");
  c.add<VoltageSource>("vdd_src", vdd, c.ground(), 1.2);
  c.add<Mosfet>("mp_a", MosType::kPmos, d, d, vdd, pmos_params(10e-6));
  c.add<Mosfet>("mn_a", MosType::kNmos, d, d, c.ground(), nmos_params(4e-6));
  c.add<Mosfet>("mp_b", MosType::kPmos, d, d, vdd, pmos_params(12e-6));
  c.add<Mosfet>("mn_b", MosType::kNmos, d, d, c.ground(), nmos_params(4e-6));
  c.add<CurrentSource>("iin", c.ground(), d, 8e-6);
  expect_pin(erc_of(c), {R"pin(error: [si.supply-min] supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_a'/'mp_a' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2)) (fix: raise the supply above 1.7 V or use lower-Vt devices)
error: [si.supply-min] supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_a'/'mp_b' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2)) (fix: raise the supply above 1.7 V or use lower-Vt devices)
error: [si.supply-min] supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_b'/'mp_a' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2)) (fix: raise the supply above 1.7 V or use lower-Vt devices)
error: [si.supply-min] supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_b'/'mp_b' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2)) (fix: raise the supply above 1.7 V or use lower-Vt devices)
warning: [si.classab-asymmetry] class-AB pair 'mn_a'/'mp_b' has unbalanced beta (200 vs 240 uA/V^2, 16.67% apart): the quiescent point shifts off mid-rail (fix: size W_p/W_n to compensate the KP_n/KP_p ratio)
warning: [si.classab-asymmetry] class-AB pair 'mn_b'/'mp_b' has unbalanced beta (200 vs 240 uA/V^2, 16.67% apart): the quiescent point shifts off mid-rail (fix: size W_p/W_n to compensate the KP_n/KP_p ratio)
)pin",
 R"pin({"diagnostics":[{"severity":"error","rule":"si.supply-min","message":"supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_a'/'mp_a' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2))","line":0,"element":"mp_a","fix":"raise the supply above 1.7 V or use lower-Vt devices"},{"severity":"error","rule":"si.supply-min","message":"supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_a'/'mp_b' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2))","line":0,"element":"mp_b","fix":"raise the supply above 1.7 V or use lower-Vt devices"},{"severity":"error","rule":"si.supply-min","message":"supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_b'/'mp_a' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2))","line":0,"element":"mp_a","fix":"raise the supply above 1.7 V or use lower-Vt devices"},{"severity":"error","rule":"si.supply-min","message":"supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn_b'/'mp_b' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2))","line":0,"element":"mp_b","fix":"raise the supply above 1.7 V or use lower-Vt devices"},{"severity":"warning","rule":"si.classab-asymmetry","message":"class-AB pair 'mn_a'/'mp_b' has unbalanced beta (200 vs 240 uA/V^2, 16.67% apart): the quiescent point shifts off mid-rail","line":0,"element":"mn_a","fix":"size W_p/W_n to compensate the KP_n/KP_p ratio"},{"severity":"warning","rule":"si.classab-asymmetry","message":"class-AB pair 'mn_b'/'mp_b' has unbalanced beta (200 vs 240 uA/V^2, 16.67% apart): the quiescent point shifts off mid-rail","line":0,"element":"mn_b","fix":"size W_p/W_n to compensate the KP_n/KP_p ratio"}],"notes":0,"warnings":2,"errors":4})pin"});
}

// Two switches join each gate to its drain and two join the cascaded
// drains: the first switch in element order is the sampling switch
// (phase 1 in both cells, so they overlap; the second gate switch of
// cell 2 is on phase 2), and the cascade is reported once.
TEST(PinnedOutputs, ErcTwoSwitchesOnOneNodePair) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add<VoltageSource>("vdd_src", vdd, c.ground(), 3.3);
  const NodeId d1 = switched_cell(c, "1", vdd, &TwoPhaseClock::phase1);
  const NodeId d2 =
      switched_cell(c, "2", vdd, &TwoPhaseClock::phase1, /*reversed=*/true);
  c.add<Switch>("sn2_late", c.node("gn2"), d2, kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sp2_late", d2, c.node("gp2"), kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sx_a", d2, d1, kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sx_b", d1, d2, kClock.phase1(), 1e3, 1e12);
  expect_pin(erc_of(c), {R"pin(error: [si.clock-overlap] cascaded memory cells at nodes 'd1' and 'd2' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay (fix: clock the second cell on the opposite phase)
)pin",
 R"pin({"diagnostics":[{"severity":"error","rule":"si.clock-overlap","message":"cascaded memory cells at nodes 'd1' and 'd2' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay","line":0,"element":"sn2","fix":"clock the second cell on the opposite phase"}],"notes":0,"warnings":0,"errors":1})pin"});
}

// The rail 'vdd' is driven first by a ground-first source of -1.2 V
// (a +1.2 V supply) and then by a 3.3 V source: the first one counts.
// Rail 'vb' is driven first by a 0 V source, which leaves its pair's
// supply unidentified although a 1 V source follows.
TEST(PinnedOutputs, ErcGroundFirstSourceThenSecondSource) {
  Circuit c;
  const NodeId vdd = c.node("vdd"), vb = c.node("vb"), d = c.node("d"),
               e = c.node("e");
  c.add<VoltageSource>("vfloat", vdd, vb, 1.0);
  c.add<VoltageSource>("vneg", c.ground(), vdd, -1.2);
  c.add<VoltageSource>("vpos", vdd, c.ground(), 3.3);
  c.add<VoltageSource>("vb_zero", vb, c.ground(), 0.0);
  c.add<VoltageSource>("vb_one", vb, c.ground(), 1.0);
  c.add<Mosfet>("mn", MosType::kNmos, d, d, c.ground(), nmos_params(4e-6));
  c.add<Mosfet>("mp", MosType::kPmos, d, d, vdd, pmos_params(10e-6));
  c.add<Mosfet>("mn_b", MosType::kNmos, e, e, c.ground(), nmos_params(4e-6));
  c.add<Mosfet>("mp_b", MosType::kPmos, e, e, vb, pmos_params(10e-6));
  c.add<CurrentSource>("id", c.ground(), d, 8e-6);
  c.add<CurrentSource>("ie", c.ground(), e, 8e-6);
  expect_pin(erc_of(c), {R"pin(error: [si.supply-min] supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn'/'mp' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2)) (fix: raise the supply above 1.7 V or use lower-Vt devices)
note: [spice.zero-source] voltage source 'vb_zero' is identically 0 V (ammeter idiom?)
)pin",
 R"pin({"diagnostics":[{"severity":"error","rule":"si.supply-min","message":"supply 1.2 V is below the class-AB pair minimum 1.7 V for 'mn'/'mp' (Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1, paper Eqs. (1)-(2))","line":0,"element":"mp","fix":"raise the supply above 1.7 V or use lower-Vt devices"},{"severity":"note","rule":"spice.zero-source","message":"voltage source 'vb_zero' is identically 0 V (ammeter idiom?)","line":0,"element":"vb_zero","fix":""}],"notes":1,"warnings":0,"errors":1})pin"});
}

// Three cascaded cells on phases 1, 2, 2 with the transfer switches
// declared out of cascade order: only cells 2 and 3 overlap.
TEST(PinnedOutputs, ErcThreeCellCascadeOneOverlap) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add<VoltageSource>("vdd_src", vdd, c.ground(), 3.3);
  const NodeId d3 = switched_cell(c, "3", vdd, &TwoPhaseClock::phase2);
  const NodeId d1 = switched_cell(c, "1", vdd, &TwoPhaseClock::phase1);
  const NodeId d2 = switched_cell(c, "2", vdd, &TwoPhaseClock::phase2);
  c.add<Switch>("sx23", d3, d2, kClock.phase1(), 1e3, 1e12);
  c.add<Switch>("sx12", d1, d2, kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sx31", d3, d1, kClock.phase1(), 1e3, 1e12);
  expect_pin(erc_of(c), {R"pin(error: [si.clock-overlap] cascaded memory cells at nodes 'd3' and 'd2' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay (fix: clock the second cell on the opposite phase)
)pin",
 R"pin({"diagnostics":[{"severity":"error","rule":"si.clock-overlap","message":"cascaded memory cells at nodes 'd3' and 'd2' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay","line":0,"element":"sn2","fix":"clock the second cell on the opposite phase"}],"notes":0,"warnings":0,"errors":1})pin"});
}

// Four cells all on phase 1, declared out of cascade order and joined
// in a ring: every joined pair overlaps, reported in ascending
// (first cell, second cell) element order.
TEST(PinnedOutputs, ErcSamePhaseRingOrder) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add<VoltageSource>("vdd_src", vdd, c.ground(), 3.3);
  const NodeId d2 = switched_cell(c, "2", vdd, &TwoPhaseClock::phase1);
  const NodeId d4 = switched_cell(c, "4", vdd, &TwoPhaseClock::phase1);
  const NodeId d1 = switched_cell(c, "1", vdd, &TwoPhaseClock::phase1);
  const NodeId d3 = switched_cell(c, "3", vdd, &TwoPhaseClock::phase1);
  c.add<Switch>("sx34", d3, d4, kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sx41", d4, d1, kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sx12", d1, d2, kClock.phase2(), 1e3, 1e12);
  c.add<Switch>("sx23", d2, d3, kClock.phase2(), 1e3, 1e12);
  expect_pin(erc_of(c), {R"pin(error: [si.clock-overlap] cascaded memory cells at nodes 'd2' and 'd1' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay (fix: clock the second cell on the opposite phase)
error: [si.clock-overlap] cascaded memory cells at nodes 'd2' and 'd3' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay (fix: clock the second cell on the opposite phase)
error: [si.clock-overlap] cascaded memory cells at nodes 'd4' and 'd1' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay (fix: clock the second cell on the opposite phase)
error: [si.clock-overlap] cascaded memory cells at nodes 'd4' and 'd3' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay (fix: clock the second cell on the opposite phase)
)pin",
 R"pin({"diagnostics":[{"severity":"error","rule":"si.clock-overlap","message":"cascaded memory cells at nodes 'd2' and 'd1' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay","line":0,"element":"sn1","fix":"clock the second cell on the opposite phase"},{"severity":"error","rule":"si.clock-overlap","message":"cascaded memory cells at nodes 'd2' and 'd3' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay","line":0,"element":"sn3","fix":"clock the second cell on the opposite phase"},{"severity":"error","rule":"si.clock-overlap","message":"cascaded memory cells at nodes 'd4' and 'd1' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay","line":0,"element":"sn1","fix":"clock the second cell on the opposite phase"},{"severity":"error","rule":"si.clock-overlap","message":"cascaded memory cells at nodes 'd4' and 'd3' sample on overlapping clock phases (457 ns of double-ON per 1000 ns hyperperiod, non-overlap margin -457 ns): the chain is transparent, not a z^-1 delay","line":0,"element":"sn3","fix":"clock the second cell on the opposite phase"}],"notes":0,"warnings":0,"errors":4})pin"});
}

// A CMFF master with three extraction devices: into a drain carrying a
// non-diode PMOS listed before a PMOS diode (a CMFF output, off-size:
// fires), into a half-size one (silent), and into a drain with only a
// non-diode PMOS (a plain mirror: silent).
TEST(PinnedOutputs, ErcCmffExtractionDrainWithDiodeAndNonDiodePmos) {
  Circuit c;
  const NodeId vdd = c.node("vdd"), m = c.node("m"), x = c.node("x"),
               y = c.node("y"), z = c.node("z"), bias = c.node("bias");
  c.add<VoltageSource>("vdd_src", vdd, c.ground(), 3.3);
  c.add<VoltageSource>("vbias", bias, c.ground(), 2.0);
  c.add<Mosfet>("me_x", MosType::kNmos, x, m, c.ground(), nmos_params(3e-6));
  c.add<Mosfet>("mm", MosType::kNmos, m, m, c.ground(), nmos_params(4e-6));
  c.add<Mosfet>("mq_x", MosType::kPmos, x, bias, vdd, pmos_params(10e-6));
  c.add<Mosfet>("md_x", MosType::kPmos, x, x, vdd, pmos_params(10e-6));
  c.add<Mosfet>("me_y", MosType::kNmos, y, m, c.ground(), nmos_params(2e-6));
  c.add<Mosfet>("md_y", MosType::kPmos, y, y, vdd, pmos_params(10e-6));
  c.add<Mosfet>("me_z", MosType::kNmos, z, m, c.ground(), nmos_params(1e-6));
  c.add<Mosfet>("mq_z", MosType::kPmos, z, bias, vdd, pmos_params(10e-6));
  c.add<CurrentSource>("im", vdd, m, 8e-6);
  expect_pin(erc_of(c), {R"pin(warning: [si.cmff-half-size] CMFF extraction device 'me_x' is 0.75x the master 'mm' (expected 0.5x): the extracted common mode is off by 50% (fix: size the extraction pair at exactly half the master W/L)
)pin",
 R"pin({"diagnostics":[{"severity":"warning","rule":"si.cmff-half-size","message":"CMFF extraction device 'me_x' is 0.75x the master 'mm' (expected 0.5x): the extracted common mode is off by 50%","line":0,"element":"me_x","fix":"size the extraction pair at exactly half the master W/L"}],"notes":0,"warnings":1,"errors":0})pin"});
}

}  // namespace
