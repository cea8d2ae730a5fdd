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
#include <string>
#include <vector>

#include "analysis/mc_batch.hpp"
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

}  // namespace
