// P1: engine microbenchmarks (google-benchmark) — the computational
// substrate costs: FFT, MNA factor/solve, transient stepping, behavioral
// modulator and delay-line throughput.
#include <benchmark/benchmark.h>

#include "analysis/mc_batch.hpp"
#include "analysis/monte_carlo.hpp"
#include "dsm/adc.hpp"
#include "dsm/modulator.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "runtime/result_cache.hpp"
#include "dsp/fft.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "linalg/lu.hpp"
#include "si/delay_line.hpp"
#include "si/filter.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "verify/verify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace {

void BM_Fft64k(benchmark::State& state) {
  const auto x = si::dsp::white_noise(1 << 16, 1.0, 1);
  std::vector<si::dsp::cplx> buf(x.begin(), x.end());
  for (auto _ : state) {
    auto y = buf;
    si::dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft64k);

void BM_PowerSpectrum64k(benchmark::State& state) {
  const auto x = si::dsp::white_noise(1 << 16, 1.0, 2);
  for (auto _ : state) {
    auto s = si::dsp::compute_power_spectrum(x, 1.0);
    benchmark::DoNotOptimize(s.power.data());
  }
}
BENCHMARK(BM_PowerSpectrum64k);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  si::dsp::Xoshiro256 rng(3);
  si::linalg::Matrix a(n, n);
  si::linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.normal();
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    a(i, i) += 8.0;
  }
  for (auto _ : state) {
    si::linalg::LuFactorization<double> lu(a);
    auto x = lu.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_MemoryPairDcOp(benchmark::State& state) {
  for (auto _ : state) {
    si::spice::Circuit c;
    c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    si::cells::netlists::MemoryPairOptions opt;
    si::cells::netlists::build_class_ab_memory_pair(c, opt, "m_");
    auto r = si::spice::dc_operating_point(c);
    benchmark::DoNotOptimize(r.x.data());
  }
}
BENCHMARK(BM_MemoryPairDcOp);

void BM_TransientClockPeriod(benchmark::State& state) {
  for (auto _ : state) {
    si::spice::Circuit c;
    c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    si::cells::netlists::MemoryPairOptions opt;
    si::cells::netlists::build_class_ab_memory_pair(c, opt, "m_");
    si::spice::TransientOptions topt;
    topt.t_stop = opt.clock_period;
    topt.dt = opt.clock_period / 500.0;
    si::spice::Transient tr(c, topt);
    auto res = tr.run();
    benchmark::DoNotOptimize(res.time.data());
  }
}
BENCHMARK(BM_TransientClockPeriod);

void BM_SiModulatorSamples(benchmark::State& state) {
  si::dsm::SiModulatorConfig cfg;
  si::dsm::SiSigmaDeltaModulator m(cfg);
  const auto x = si::dsp::sine(4096, 3e-6, 0.001, 1.0);
  for (auto _ : state) {
    for (double v : x) benchmark::DoNotOptimize(m.step(v));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_SiModulatorSamples);

void BM_DelayLineSamples(benchmark::State& state) {
  si::cells::DelayLineConfig cfg;
  si::cells::DelayLine line(cfg);
  const auto x = si::dsp::sine(4096, 8e-6, 0.001, 1.0);
  for (auto _ : state) {
    for (double v : x)
      benchmark::DoNotOptimize(
          line.process(si::cells::Diff::from_dm_cm(v, 0.0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_DelayLineSamples);

void BM_BiquadSamples(benchmark::State& state) {
  si::cells::SiBiquadConfig cfg;
  si::cells::SiBiquad f(cfg);
  const auto x = si::dsp::sine(4096, 1e-6, 0.001, 1.0);
  for (auto _ : state) {
    for (double v : x)
      benchmark::DoNotOptimize(f.step(si::cells::Diff::from_dm_cm(v, 0.0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_BiquadSamples);

void BM_AdcConvert(benchmark::State& state) {
  si::dsm::SiAdcConfig cfg;
  si::dsm::SiAdc adc(cfg);
  const auto x = si::dsp::sine(4096, 3e-6, 0.001, 1.0);
  for (auto _ : state) {
    auto pcm = adc.convert(x);
    benchmark::DoNotOptimize(pcm.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_AdcConvert);

// One Monte-Carlo trial of realistic cost: a mismatch-seeded modulator
// over 2048 samples.  Used by the runtime scaling benchmarks below.
double mc_modulator_trial(std::uint64_t seed) {
  si::dsm::SiModulatorConfig cfg;
  cfg.seed = seed;
  si::dsm::SiSigmaDeltaModulator m(cfg);
  double acc = 0.0;
  for (int k = 0; k < 2048; ++k) acc += m.step(1e-6);
  return acc;
}

// Serial reference: the pre-runtime single-core loop.
void BM_MonteCarloSerial(benchmark::State& state) {
  const int runs = static_cast<int>(state.range(0));
  si::analysis::McOptions opts;
  opts.parallel = false;
  for (auto _ : state) {
    auto st = si::analysis::monte_carlo(runs, mc_modulator_trial, opts);
    benchmark::DoNotOptimize(st.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * runs);
}
BENCHMARK(BM_MonteCarloSerial)->Arg(64)->UseRealTime();

// Same workload through the work-stealing pool at 1/2/4/8 threads —
// near-linear scaling up to the physical core count, bit-identical
// samples at every width.
void BM_MonteCarloParallel(benchmark::State& state) {
  const int runs = 64;
  si::runtime::set_thread_count(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto st = si::analysis::monte_carlo(runs, mc_modulator_trial, 1);
    benchmark::DoNotOptimize(st.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  si::runtime::set_thread_count(0);  // back to env/hardware default
}
BENCHMARK(BM_MonteCarloParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Content-addressed caching: every iteration after the first is served
// from the shared series cache without running a single trial.
void BM_MonteCarloCached(benchmark::State& state) {
  const int runs = 64;
  si::analysis::McOptions opts;
  opts.cache_key =
      si::runtime::Fnv1a().str("perf.mc_modulator_trial").u64(2048).digest();
  for (auto _ : state) {
    auto st = si::analysis::monte_carlo(runs, mc_modulator_trial, opts);
    benchmark::DoNotOptimize(st.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * runs);
}
BENCHMARK(BM_MonteCarloCached)->UseRealTime();

// ---------------------------------------------------------------------------
// Static verification (src/verify/) throughput: interval abstract
// interpretation + property checkers over the Table 2 modulator core at
// growing section counts.  The whole-deck analysis must stay well under
// interactive latency (the quick gate below holds the largest netlist
// to 100 ms).
// ---------------------------------------------------------------------------

si::spice::Circuit build_verify_modulator(int sections) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  c.add<si::spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
  c.add<si::spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
  return c;
}

void BM_VerifyModulator(benchmark::State& state) {
  const auto c = build_verify_modulator(static_cast<int>(state.range(0)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    auto r = si::verify::analyze(c);
    nodes = r.stats.nodes;
    benchmark::DoNotOptimize(r.findings.data());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_VerifyModulator)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Event-vs-monolithic engine rows.  Two workload families:
//  * event_modulator_sweep — the OSR-64 modulator (input sine at
//    f_clk / 128) across sizes; the event engine must not lose to the
//    monolithic engine and the waveforms must agree.
//  * event_modulator_hold  — a long-horizon (>= 1e4 clock periods) DC-hold
//    modulator transient, the latency-exploitation headline: once the
//    periodic steady state is reached, re-sampled values match the held
//    ones, blocks latch latent, and whole steps are skipped.
// Both run with event_quiescent_tol = 1e-6, the documented latency-
// exploitation setting (see DESIGN.md, "Block-latency contract").
// ---------------------------------------------------------------------------

struct EventRow {
  std::string workload;
  int size = 0;
  double periods = 0.0;
  std::size_t unknowns = 0;
  double mono_ms = 0.0;
  double event_ms = 0.0;
  double latency_ratio = 0.0;
  std::uint64_t steps_skipped = 0;
  std::uint64_t steps_total = 0;
  double parity_maxerr = 0.0;
};

si::spice::TransientResult run_modulator_engine(
    int sections, double periods, bool dc_hold,
    si::spice::TransientEngine engine, std::size_t* unknowns) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  if (dc_hold) {
    c.add<si::spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
    c.add<si::spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
  } else {
    // OSR-64 stimulus: input sine at f_clk / (2 * 64).
    c.add<si::spice::CurrentSource>(
        "Iinp", c.ground(), h.in_p,
        std::make_unique<si::spice::SineWave>(0.0, 4e-6, 1.0 / (128.0 * T)));
    c.add<si::spice::CurrentSource>(
        "Iinm", c.ground(), h.in_m,
        std::make_unique<si::spice::SineWave>(0.0, -4e-6, 1.0 / (128.0 * T)));
  }
  si::spice::TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  topt.event_quiescent_tol = 1e-6;
  si::spice::Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  tr.probe_voltage(c.node_name(h.out_m));
  *unknowns = c.system_size();
  return tr.run();
}

EventRow time_event_row(const std::string& workload, int sections,
                        double periods, bool dc_hold, int reps) {
  EventRow r;
  r.workload = workload;
  r.size = sections;
  r.periods = periods;
  si::spice::TransientResult mono, ev;
  double best_m = 1e300;
  double best_e = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    mono = run_modulator_engine(sections, periods, dc_hold,
                                si::spice::TransientEngine::kMonolithic,
                                &r.unknowns);
    auto t1 = std::chrono::steady_clock::now();
    ev = run_modulator_engine(sections, periods, dc_hold,
                              si::spice::TransientEngine::kEvent, &r.unknowns);
    auto t2 = std::chrono::steady_clock::now();
    best_m = std::min(
        best_m, std::chrono::duration<double, std::milli>(t1 - t0).count());
    best_e = std::min(
        best_e, std::chrono::duration<double, std::milli>(t2 - t1).count());
  }
  r.mono_ms = best_m;
  r.event_ms = best_e;
  const double block_events =
      static_cast<double>(ev.event_block_solves + ev.event_block_skips);
  r.latency_ratio = block_events > 0.0
                        ? static_cast<double>(ev.event_block_skips) /
                              block_events
                        : 0.0;
  r.steps_skipped = ev.event_steps_skipped;
  r.steps_total = mono.steps_accepted;
  for (const auto& [label, mv] : mono.signals) {
    const auto& evv = ev.signal(label);
    for (std::size_t k = 0; k < mv.size(); ++k)
      r.parity_maxerr = std::max(r.parity_maxerr, std::abs(mv[k] - evv[k]));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Monte-Carlo rows: trials/sec of the mismatch-offset DC ensemble
// (analysis::modulator_mismatch_workload) on the Table 2 modulator
// core, two ways —
//  * rebuild_tps — the per-trial path: every trial builds its own
//    circuit and runs the full gmin-stepping ladder cold;
//  * scalar_tps  — monte_carlo_dc at batch=8: structure-shared solves
//    over the one nominal symbolic factorization.
// Both produce bit-identical samples; only throughput differs.
// ---------------------------------------------------------------------------

struct McBatchRow {
  int size = 0;
  std::size_t unknowns = 0;
  int runs = 0;
  unsigned threads = 0;
  std::size_t batch = 0;
  double rebuild_tps = 0.0;
  double scalar_tps = 0.0;
};

double time_once(const std::function<void()>& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

McBatchRow time_mc_batch_row(int sections, unsigned threads, int runs) {
  McBatchRow r;
  r.size = sections;
  r.runs = runs;
  r.threads = threads;
  r.batch = 8;
  const auto w = si::analysis::modulator_mismatch_workload(sections);
  {
    si::spice::Circuit c;
    (void)w.build(c);
    r.unknowns = c.system_size();
  }
  auto rebuild = [&] {
    auto st = si::analysis::monte_carlo(
        runs,
        [&w](std::uint64_t seed) {
          si::spice::Circuit c;
          auto fns = w.build(c);
          fns.apply(seed);
          si::spice::DcOptions dopt;
          dopt.newton = w.newton;
          dopt.erc_gate = false;
          const auto dc = si::spice::dc_operating_point(c, dopt);
          return fns.measure(si::spice::SolutionView(c, dc.x));
        },
        si::analysis::McOptions{});
    benchmark::DoNotOptimize(st.samples.data());
  };
  auto scalar = [&] {
    si::analysis::McBatchOptions o;
    o.batch = r.batch;
    auto st = si::analysis::monte_carlo_dc(runs, w, o);
    benchmark::DoNotOptimize(st.samples.data());
  };

  si::runtime::set_thread_count(threads);
  rebuild();  // warm-up: thread pool, allocator, result layouts
  scalar();
  // The two paths are timed INTERLEAVED, best-of-3 each: a host-wide
  // slowdown (shared machine, CPU quota) then hits both about equally
  // and the gated ratio stays meaningful.
  double tr = 1e300, ts = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    tr = std::min(tr, time_once(rebuild));
    ts = std::min(ts, time_once(scalar));
  }
  r.rebuild_tps = static_cast<double>(runs) / tr;
  r.scalar_tps = static_cast<double>(runs) / ts;
  si::runtime::set_thread_count(0);
  return r;
}

// ---------------------------------------------------------------------------
// factor_scaling — the one-time SparseLu::factor (ordering, pivoting
// pass, symbolic fill, first numeric factor) on the transient Jacobian of
// the 32/64/128/256-section cores (546-4354 unknowns).  The time-vs-size
// exponent fitted over the best of kFactorReps runs per size must stay
// <= 2.0.
// ---------------------------------------------------------------------------

constexpr int kFactorReps = 5;

/// The transient-mode MNA Jacobian of the Table 2 modulator core at its
/// DC operating point: the system the engine factors once per topology.
si::linalg::SparseMatrixD modulator_jacobian(int sections,
                                             std::size_t* unknowns) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  c.add<si::spice::CurrentSource>("Iinp", c.ground(), h.in_p, 4e-6);
  c.add<si::spice::CurrentSource>("Iinm", c.ground(), h.in_m, -4e-6);
  si::spice::DcOptions dopt;
  dopt.erc_gate = false;
  const auto dc = si::spice::dc_operating_point(c, dopt);
  const std::size_t n = *unknowns = c.system_size();
  si::spice::StampContext ctx;
  ctx.mode = si::spice::AnalysisMode::kTransient;
  ctx.dt = opt.stage.pair.clock_period / 200.0;
  si::linalg::Vector b(n, 0.0);
  si::linalg::PatternBuilder pb(static_cast<int>(n));
  {
    si::spice::RealStamper rec(c, pb, b, dc.x);
    for (const auto& e : c.elements()) e->stamp(rec, ctx);
  }
  si::linalg::SparseMatrixD a(pb.build(true));
  {
    si::spice::RealStamper rs(c, a, b, dc.x);
    for (const auto& e : c.elements()) e->stamp(rs, ctx);
  }
  // gmin on the node diagonal, like the engine's baseline stamp.
  for (std::size_t i = 0; i + 1 < c.node_count(); ++i)
    a.values()[static_cast<std::size_t>(a.pattern().diag_slots()[i])] +=
        ctx.gmin;
  return a;
}

struct FactorRow {
  int size = 0;
  std::size_t unknowns = 0;
  std::size_t factor_nnz = 0;
  double factor_ms = 0.0;
};

FactorRow time_factor_row(int sections) {
  FactorRow r;
  r.size = sections;
  const auto a = modulator_jacobian(sections, &r.unknowns);
  r.factor_ms = 1e300;
  for (int rep = 0; rep < kFactorReps; ++rep) {
    si::linalg::SparseLuD lu;  // fresh: every rep runs the symbolic phase
    r.factor_ms = std::min(r.factor_ms, 1e3 * time_once([&] { lu.factor(a); }));
    r.factor_nnz = lu.factor_nnz();
  }
  return r;
}

/// Least-squares slope of log(factor_ms) against log(unknowns).
double fitted_exponent(const std::vector<FactorRow>& rows) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double k = static_cast<double>(rows.size());
  for (const auto& r : rows) {
    const double x = std::log(static_cast<double>(r.unknowns));
    const double y = std::log(r.factor_ms);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

// --quick mode: the hand-timed event, verify, Monte-Carlo and
// factor-scaling rows written to BENCH_solvers.json, each with its
// regression gate.  Used by the CI benchmark smoke lane.
int run_quick(const std::string& out_path, bool telemetry, bool long_horizon) {
  if (telemetry) {
    si::obs::set_enabled(true);
    si::obs::reset();
  }
  // Event-engine rows: the OSR-64 sweep always runs; the 1e4-period
  // DC-hold headline only with --long (it takes tens of seconds).
  std::vector<EventRow> event_rows;
  for (int sections : {2, 4, 8})
    event_rows.push_back(time_event_row("event_modulator_sweep", sections,
                                        20.0, /*dc_hold=*/false, /*reps=*/2));
  if (long_horizon)
    event_rows.push_back(time_event_row("event_modulator_hold", 4, 10000.0,
                                        /*dc_hold=*/true, /*reps=*/1));

  // Static-verification rows: whole-netlist interval analysis + property
  // checkers on the modulator core across sizes.
  struct VerifyRow {
    int size = 0;
    std::size_t nodes = 0, pairs = 0, segments = 0, findings = 0;
    double analyze_ms = 0.0;
  };
  std::vector<VerifyRow> verify_rows;
  for (int sections : {1, 2, 4, 8}) {
    VerifyRow r;
    r.size = sections;
    const auto c = build_verify_modulator(sections);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto vr = si::verify::analyze(c);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      r.nodes = vr.stats.nodes;
      r.pairs = vr.stats.pairs;
      r.segments = vr.stats.segments;
      r.findings = vr.findings.size();
    }
    r.analyze_ms = best;
    verify_rows.push_back(r);
  }

  // Monte-Carlo rows: thread sweep (1/2/4/8) on a small and on the
  // largest Table 2 modulator.  The gate below checks the last row
  // (size 8, 8 threads) against the per-trial rebuild path.
  std::vector<McBatchRow> mc_rows;
  for (int sections : {2, 8})
    for (unsigned threads : {1u, 2u, 4u, 8u})
      mc_rows.push_back(time_mc_batch_row(sections, threads, /*runs=*/64));

  // The one-time sparse factor across sizes.
  std::vector<FactorRow> factor_rows;
  for (int sections : {32, 64, 128, 256})
    factor_rows.push_back(time_factor_row(sections));
  const double factor_exponent = fitted_exponent(factor_rows);

  std::ofstream os(out_path);
  os << "{\n  \"event_bench\": [\n";
  for (std::size_t i = 0; i < event_rows.size(); ++i) {
    const auto& r = event_rows[i];
    os << "    {\"workload\": \"" << r.workload << "\", \"size\": " << r.size
       << ", \"periods\": " << r.periods << ", \"unknowns\": " << r.unknowns
       << ", \"quiescent_tol\": 1e-06, \"mono_ms\": " << r.mono_ms
       << ", \"event_ms\": " << r.event_ms
       << ", \"speedup\": " << r.mono_ms / r.event_ms
       << ", \"latency_ratio\": " << r.latency_ratio
       << ", \"steps_skipped\": " << r.steps_skipped
       << ", \"steps_total\": " << r.steps_total
       << ", \"parity_maxerr\": " << r.parity_maxerr << "}"
       << (i + 1 < event_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"verify_bench\": [\n";
  for (std::size_t i = 0; i < verify_rows.size(); ++i) {
    const auto& r = verify_rows[i];
    os << "    {\"workload\": \"verify_modulator\", \"size\": " << r.size
       << ", \"nodes\": " << r.nodes << ", \"pairs\": " << r.pairs
       << ", \"segments\": " << r.segments << ", \"findings\": " << r.findings
       << ", \"analyze_ms\": " << r.analyze_ms << "}"
       << (i + 1 < verify_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"mc_batch\": [\n";
  for (std::size_t i = 0; i < mc_rows.size(); ++i) {
    const auto& r = mc_rows[i];
    os << "    {\"workload\": \"mc_modulator_offset\", \"size\": " << r.size
       << ", \"unknowns\": " << r.unknowns << ", \"runs\": " << r.runs
       << ", \"threads\": " << r.threads << ", \"batch\": " << r.batch
       << ", \"rebuild_tps\": " << r.rebuild_tps
       << ", \"scalar_tps\": " << r.scalar_tps
       << ", \"speedup_vs_rebuild\": " << r.scalar_tps / r.rebuild_tps << "}"
       << (i + 1 < mc_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"factor_scaling\": [\n";
  for (std::size_t i = 0; i < factor_rows.size(); ++i) {
    const auto& r = factor_rows[i];
    os << "    {\"workload\": \"modulator_jacobian\", \"size\": " << r.size
       << ", \"unknowns\": " << r.unknowns << ", \"reps\": " << kFactorReps
       << ", \"factor_ms\": " << r.factor_ms
       << ", \"factor_nnz\": " << r.factor_nnz << "}"
       << (i + 1 < factor_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"factor_exponent\": " << factor_exponent;
  if (telemetry) {
    // Merge the solver telemetry snapshot: factor/refactor counts,
    // pattern misses, step stats for the whole quick suite.
    os << ",\n  \"telemetry\": " << si::obs::snapshot_json();
  }
  os << "\n}\n";
  os.close();

  int rc = 0;
  double sweep_mono_ms = 0.0;
  double sweep_event_ms = 0.0;
  for (const auto& r : event_rows) {
    std::printf(
        "%-22s size=%d periods=%g mono=%.2fms event=%.2fms speedup=%.2fx "
        "latency=%.2f skipped=%llu/%llu maxerr=%.2e\n",
        r.workload.c_str(), r.size, r.periods, r.mono_ms, r.event_ms,
        r.mono_ms / r.event_ms, r.latency_ratio,
        static_cast<unsigned long long>(r.steps_skipped),
        static_cast<unsigned long long>(r.steps_total), r.parity_maxerr);
    // Gates: the event engine must not lose to the monolithic engine
    // over the OSR-64 sweep, waveforms must agree to well under a
    // microvolt on every row, and the long-horizon hold run must
    // demonstrate at least the 5x latency-exploitation speedup.
    if (r.workload == "event_modulator_sweep") {
      sweep_mono_ms += r.mono_ms;
      sweep_event_ms += r.event_ms;
    }
    if (r.parity_maxerr > 1e-5) {
      std::fprintf(stderr,
                   "FAIL: event/monolithic parity diverged (maxerr=%.3e) on "
                   "%s size=%d\n",
                   r.parity_maxerr, r.workload.c_str(), r.size);
      rc = 1;
    }
    if (r.workload == "event_modulator_hold" &&
        r.mono_ms < 5.0 * r.event_ms) {
      std::fprintf(stderr,
                   "FAIL: long-horizon hold speedup %.2fx below the 5x "
                   "latency-exploitation target\n",
                   r.mono_ms / r.event_ms);
      rc = 1;
    }
  }
  for (const auto& r : verify_rows) {
    std::printf(
        "%-22s size=%d nodes=%zu pairs=%zu segments=%zu findings=%zu "
        "analyze=%.2fms\n",
        "verify_modulator", r.size, r.nodes, r.pairs, r.segments, r.findings,
        r.analyze_ms);
  }
  // Gate: static verification of the largest modulator must stay
  // interactive (< 100 ms for the whole-netlist analysis).
  if (!verify_rows.empty() && verify_rows.back().analyze_ms > 100.0) {
    std::fprintf(stderr,
                 "FAIL: verify analysis took %.2f ms (> 100 ms) on "
                 "verify_modulator size=%d\n",
                 verify_rows.back().analyze_ms, verify_rows.back().size);
    rc = 1;
  }
  for (const auto& r : mc_rows) {
    std::printf(
        "%-22s size=%d unknowns=%zu threads=%u batch=%zu rebuild=%.0f/s "
        "scalar=%.0f/s speedup=%.2fx\n",
        "mc_modulator_offset", r.size, r.unknowns, r.threads, r.batch,
        r.rebuild_tps, r.scalar_tps, r.scalar_tps / r.rebuild_tps);
  }
  // Monte-Carlo gate (largest modulator at 8 threads): the
  // structure-shared path must deliver >= 2.5x the trials/sec of the
  // per-trial rebuild path.  The bound is below the shared path's first
  // 4x because the sparse refactor-path work sped the rebuild
  // baseline's cold gmin ladders by ~2.4x.
  if (!mc_rows.empty()) {
    const auto& mg = mc_rows.back();
    if (mg.scalar_tps < 2.5 * mg.rebuild_tps) {
      std::fprintf(stderr,
                   "FAIL: Monte-Carlo %.0f trials/s < 2.5x the "
                   "per-trial path (%.0f trials/s) on mc_modulator_offset "
                   "size=%d threads=%u\n",
                   mg.scalar_tps, mg.rebuild_tps, mg.size, mg.threads);
      rc = 1;
    }
  }
  if (sweep_event_ms > sweep_mono_ms) {
    std::fprintf(stderr,
                 "FAIL: event engine (%.2f ms) slower than monolithic "
                 "(%.2f ms) over the OSR-64 modulator sweep\n",
                 sweep_event_ms, sweep_mono_ms);
    rc = 1;
  }
  for (const auto& r : factor_rows)
    std::printf("%-18s size=%d unknowns=%zu factor=%.2fms factor_nnz=%zu\n",
                "factor_scaling", r.size, r.unknowns, r.factor_ms,
                r.factor_nnz);
  std::printf("factor_scaling fitted exponent=%.2f\n", factor_exponent);
  // Gate: the one-time factor grows at most quadratically in size.
  if (factor_exponent > 2.0) {
    std::fprintf(stderr,
                 "FAIL: SparseLu::factor time grows as n^%.2f (> n^2) over "
                 "the 32-256-section modulator Jacobians\n",
                 factor_exponent);
    rc = 1;
  }
  if (telemetry) {
    std::fputs(si::obs::snapshot_table().c_str(), stdout);
    // Gate: every workload here stamps inside its discovered pattern by
    // contract, so any pattern miss is a regression.
    const std::uint64_t misses =
        si::obs::counter("mna.pattern_misses").value();
    if (misses > 0) {
      std::fprintf(stderr,
                   "FAIL: %llu stamp-pattern miss(es) in the quick suite "
                   "(stamp-pattern contract violated)\n",
                   static_cast<unsigned long long>(misses));
      rc = 1;
    }
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_solvers.json";
  bool quick = false;
  bool telemetry = false;
  bool long_horizon = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry = true;
    if (std::strcmp(argv[i], "--long") == 0) long_horizon = true;
  }
  if (quick) return run_quick(out, telemetry, long_horizon);
  if (telemetry) si::obs::set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (telemetry) std::fputs(si::obs::snapshot_table().c_str(), stdout);
  return 0;
}
