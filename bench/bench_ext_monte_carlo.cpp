// Extension E5: Monte-Carlo yield of the SI modulator across mismatch
// draws — turning the paper's single-chip measurement into the question
// a production team asks: what fraction of parts make 10 bits?
//
// The transistor-level mismatch ensemble at the end runs through the
// structure-shared DC solve (analysis::monte_carlo_dc); --batch=N (or
// SI_MC_BATCH) sets how many trials a worker solves per parallel chunk.
// Samples are bit-identical at every batch width.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "analysis/mc_batch.hpp"
#include "analysis/measure.hpp"
#include "analysis/monte_carlo.hpp"
#include "analysis/table.hpp"
#include "dsm/modulator.hpp"
#include "runtime/env.hpp"
#include "runtime/parallel.hpp"
#include "runtime/result_cache.hpp"
#include "si/common_mode.hpp"

using namespace si;

namespace {

double modulator_sndr(std::uint64_t seed, double mismatch_scale) {
  analysis::ToneTestConfig cfg;
  cfg.clock_hz = 2.45e6;
  cfg.tone_hz = 2e3;
  cfg.band_hz = 2.45e6 / 256.0;
  cfg.fft_points = 1 << 14;
  auto dut = [&](const std::vector<double>& x) {
    dsm::SiModulatorConfig mc;
    mc.seed = seed;
    mc.cell_mismatch_sigma *= mismatch_scale;
    mc.coeff_mismatch_sigma *= mismatch_scale;
    mc.dac_mismatch_sigma *= mismatch_scale;
    mc.cmff.mirror_mismatch_sigma *= mismatch_scale;
    dsm::SiSigmaDeltaModulator m(mc);
    auto y = m.run(x);
    for (auto& v : y) v *= mc.full_scale;
    return y;
  };
  return analysis::run_tone_test(dut, 3e-6, cfg).metrics.sndr_db;
}

}  // namespace

int main(int argc, char** argv) {
  // Trials per parallel chunk; 0 = SI_MC_BATCH env or the default.
  std::size_t batch = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch=", 8) != 0) continue;
    try {
      batch = static_cast<std::size_t>(
          runtime::parse_long("--batch", argv[i] + 8, 1));
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  analysis::print_banner(std::cout,
                         "Extension E5 - Monte-Carlo yield (60 dies each)");

  auto offset_na = [](std::uint64_t seed, double scale) {
    dsm::SiModulatorConfig mc;
    mc.seed = seed;
    mc.cell_mismatch_sigma *= scale;
    mc.coeff_mismatch_sigma *= scale;
    mc.dac_mismatch_sigma *= scale;
    mc.cmff.mirror_mismatch_sigma *= scale;
    dsm::SiSigmaDeltaModulator m(mc);
    double acc = 0.0;
    const int n = 1 << 14;
    for (int k = 0; k < n; ++k) acc += m.step(0.0);
    return std::abs(acc / n * mc.full_scale) * 1e9;  // offset in nA
  };

  analysis::Table t({"mismatch scale", "SNDR mean [dB]", "SNDR sigma [dB]",
                     "yield(SNDR >= 54 dB)", "offset p90 [nA]"});
  for (double scale : {1.0, 3.0, 10.0}) {
    // Trials fan out over the si::runtime pool; the cache key names the
    // workload (functor + parameters), so a repeated invocation of the
    // same ensemble is served from the shared result cache.
    analysis::McOptions sndr_opts;
    sndr_opts.seed0 = 11;
    sndr_opts.cache_key =
        runtime::Fnv1a().str("e5.modulator_sndr").f64(scale).digest();
    const auto st = analysis::monte_carlo(
        60, [&](std::uint64_t s) { return modulator_sndr(s, scale); },
        sndr_opts);
    analysis::McOptions off_opts;
    off_opts.seed0 = 23;
    off_opts.cache_key =
        runtime::Fnv1a().str("e5.offset_na").f64(scale).digest();
    const auto off = analysis::monte_carlo(
        60, [&](std::uint64_t s) { return offset_na(s, scale); }, off_opts);
    t.add_row({analysis::fmt(scale, 0) + "x",
               analysis::fmt(st.mean, 1), analysis::fmt(st.sigma, 2),
               analysis::fmt(100.0 * st.yield_above(54.0), 0) + " %",
               analysis::fmt(off.percentile(0.9), 1)});
  }
  t.print(std::cout);
  std::cout
      << "  SNDR yield is flat across mismatch: a 1-bit DAC has only two"
         " levels and is\n  linear by construction, so mismatch maps to"
         " offset/gain — visible in the\n  offset column — not to"
         " distortion.  (The single-chip robustness the paper\n  relies"
         " on, made quantitative.)\n";

  // CMFF residual distribution — the mirror-matching spec.
  analysis::Table t2({"mirror sigma", "|residual CM gain| p50", "p99"});
  for (double mm : {1e-3, 2e-3, 5e-3}) {
    const auto st = analysis::monte_carlo(2000, [mm](std::uint64_t s) {
      cells::CmffParams p;
      p.mirror_mismatch_sigma = mm;
      return std::abs(cells::Cmff(p, s).residual_cm_gain());
    });
    t2.add_row({analysis::fmt(mm * 100, 2) + " %",
                analysis::fmt(st.percentile(0.5) * 100, 3) + " %",
                analysis::fmt(st.percentile(0.99) * 100, 3) + " %"});
  }
  std::cout << "\nCMFF residual vs mirror matching:\n";
  t2.print(std::cout);
  std::cout << "  (nominal 0.2 % matching keeps the residual CM under"
               " ~1 % across process)\n";

  // Transistor-level mismatch ensemble: differential output offset of
  // the Table 2 modulator core under per-device kp / Vt0 draws, solved
  // through the structure-shared DC solve at one trial per chunk and at
  // the requested width.  Samples must agree bitwise, so the only
  // difference worth printing is trials/sec.
  {
    const std::size_t width = analysis::mc_batch_lanes(batch);
    const int runs = 96;
    const auto w = analysis::modulator_mismatch_workload(2);
    auto time_run = [&](std::size_t b) {
      analysis::McBatchOptions o;
      o.seed0 = 5;
      o.batch = b;
      const auto t0 = std::chrono::steady_clock::now();
      const auto st = analysis::monte_carlo_dc(runs, w, o);
      const auto t1 = std::chrono::steady_clock::now();
      return std::make_pair(st,
                            runs / std::chrono::duration<double>(t1 - t0)
                                       .count());
    };
    const auto [single, single_tps] = time_run(1);
    const auto [wide, wide_tps] =
        width > 1 ? time_run(width) : std::make_pair(single, single_tps);
    std::cout << "\nTransistor-level offset ensemble (" << runs
              << " dies, 2-section core):\n  offset mean = "
              << analysis::fmt(single.mean * 1e3, 3) << " mV, sigma = "
              << analysis::fmt(single.sigma * 1e3, 3)
              << " mV\n  batch=1: " << analysis::fmt(single_tps, 0)
              << " trials/s; batch=" << width << ": "
              << analysis::fmt(wide_tps, 0) << " trials/s ("
              << analysis::fmt(wide_tps / single_tps, 2) << "x)\n"
              << "  samples bit-identical across widths: "
              << (wide.samples == single.samples ? "yes" : "NO") << "\n";
  }

  const auto cache = runtime::series_cache().stats();
  std::cout << "\nRuntime: " << runtime::thread_count()
            << " thread(s); result cache " << cache.hits << " hit(s), "
            << cache.misses << " miss(es), " << cache.evictions
            << " eviction(s)\n";
  return 0;
}
