#include "analysis/mc_batch.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/parallel.hpp"
#include "runtime/result_cache.hpp"
#include "runtime/rng_stream.hpp"
#include "si/netlists.hpp"
#include "spice/elements.hpp"
#include "spice/mna_batch.hpp"
#include "spice/mosfet.hpp"

namespace si::analysis {

std::size_t mc_batch_lanes(std::size_t requested) {
  if (requested > 0) return requested;
  // Strict parse (see runtime/env.hpp): junk and non-positive values
  // throw instead of silently running the default width.  Values above
  // the documented limit of 64 still clamp — a large ask is a valid ask.
  if (const auto v = runtime::parse_env_long("SI_MC_BATCH", 1,
                                             std::numeric_limits<long>::max()))
    return std::min<std::size_t>(static_cast<std::size_t>(*v), 64);
  return 8;
}

namespace {

// One worker execution context: circuit, trial functors, and the engine
// (with it the pattern + nominal-symbolic caches).  Heap-allocated and
// never moved — the engine holds a reference to the circuit next to it.
struct TrialContext {
  TrialContext(const McDcWorkload& w, const linalg::Vector& nominal)
      : fns(w.build(c)), engine(c, [&w, &nominal] {
          spice::McDcEngine::Options o;
          o.newton = w.newton;
          o.nominal_seed = nominal;
          return o;
        }()) {}

  spice::Circuit c;
  McDcTrialFns fns;
  spice::McDcEngine engine;
  linalg::Vector x;
};

std::vector<double> run_dc_trials(int runs, const McDcWorkload& w,
                                  const McBatchOptions& opts) {
  const std::size_t n = static_cast<std::size_t>(runs);
  const std::size_t width = mc_batch_lanes(opts.batch);
  std::vector<double> samples(n);

  // The nominal gmin-ladder solve is a pure function of the pristine
  // build, so run it once here and hand it to every context instead of
  // paying one ladder per worker.  If the nominal itself cannot
  // converge, leave it empty: each engine then reports the failure on
  // first use and the driver falls back to the per-trial ladder.
  linalg::Vector nominal;
  try {
    spice::Circuit proto;
    (void)w.build(proto);
    spice::DcOptions dopt;
    dopt.newton = w.newton;
    dopt.erc_gate = false;
    nominal = spice::dc_operating_point(proto, dopt).x;
  } catch (const spice::ConvergenceError&) {
    nominal.clear();
  }

  // Contexts are pooled and reused across chunks, so the expensive
  // prepare() — the pattern build plus the shared symbolic
  // factorization — runs once per *concurrent worker*, not once per
  // chunk.  Context identity cannot affect results: every context
  // derives the same nominal from the same pristine build(), and every
  // trial is a pure function of its seed.
  std::mutex ctx_mu;
  std::vector<std::unique_ptr<TrialContext>> ctx_pool;
  auto acquire = [&]() -> std::unique_ptr<TrialContext> {
    {
      const std::lock_guard<std::mutex> lock(ctx_mu);
      if (!ctx_pool.empty()) {
        auto ctx = std::move(ctx_pool.back());
        ctx_pool.pop_back();
        return ctx;
      }
    }
    return std::make_unique<TrialContext>(w, nominal);
  };

  auto body = [&](std::size_t begin, std::size_t end) {
    auto ctx = acquire();
    spice::Circuit& c = ctx->c;
    McDcTrialFns& fns = ctx->fns;

    // Last-resort per-trial solve: the full gmin-stepping ladder, used
    // when the shared-symbolic solve cannot converge or the draw stamps
    // outside the frozen pattern.
    auto ladder = [&](std::uint64_t seed) {
      fns.apply(seed);
      spice::DcOptions dopt;
      dopt.newton = w.newton;
      dopt.erc_gate = false;
      return spice::dc_operating_point(c, dopt).x;
    };

    for (std::size_t k = begin; k < end; ++k) {
      const std::uint64_t seed = runtime::trial_seed(opts.seed0, k);
      try {
        ctx->engine.solve_scalar(seed, fns.apply, ctx->x);
      } catch (const spice::ConvergenceError&) {
        ctx->x = ladder(seed);
      } catch (const linalg::PatternMissError&) {
        ctx->x = ladder(seed);
      }
      // Both solves leave this seed's draw applied, as measure() needs.
      samples[k] = fns.measure(spice::SolutionView(c, ctx->x));
    }

    const std::lock_guard<std::mutex> lock(ctx_mu);
    ctx_pool.push_back(std::move(ctx));
  };

  // Auto grain: one batch width per chunk keeps the pool's load
  // balancing fine; the context pool above makes small chunks cheap.
  // Chunk boundaries cannot change results: every trial is a pure
  // function of its seed.
  const std::size_t grain =
      opts.grain > 0 ? std::max(opts.grain, width) : width;
  if (opts.parallel)
    runtime::parallel_for(n, body, grain);
  else
    body(0, n);

  std::sort(samples.begin(), samples.end());
  return samples;
}

}  // namespace

McStatistics monte_carlo_dc(int runs, const McDcWorkload& workload,
                            const McBatchOptions& opts) {
  if (runs < 1) throw std::invalid_argument("monte_carlo_dc: runs >= 1");
  if (opts.cache_key != 0) {
    // Deliberately independent of opts.batch and the thread count:
    // runs at every width are bit-identical, so they MUST share one
    // cache entry (a run at one width warms the cache for a rerun at
    // any other).
    const std::uint64_t key = runtime::Fnv1a()
                                  .str("analysis.mc_dc")
                                  .u64(opts.cache_key)
                                  .u64(opts.seed0)
                                  .u64(static_cast<std::uint64_t>(runs))
                                  .digest();
    // Shared snapshot from the cache; the aggregation copy happens
    // outside the cache lock.
    return detail::aggregate_sorted(*runtime::series_cache().get_or_compute(
        key, [&] { return run_dc_trials(runs, workload, opts); }));
  }
  return detail::aggregate_sorted(run_dc_trials(runs, workload, opts));
}

namespace {

// Shared draw applier: snapshot every MOSFET's nominal parameters once
// at build time, then perturb kp / Vt0 per trial; apply() runs
// allocation-free and is a pure function of the seed.
std::function<void(std::uint64_t)> mosfet_mismatch_apply(spice::Circuit& c,
                                                         double sigma) {
  std::vector<std::pair<spice::Mosfet*, spice::MosfetParams>> devices;
  for (const auto& e : c.elements())
    if (auto* m = dynamic_cast<spice::Mosfet*>(e.get()))
      devices.emplace_back(m, m->params());
  return [devices = std::move(devices), sigma](std::uint64_t seed) {
    runtime::RngStream rng(seed);
    for (const auto& [mos, nominal] : devices) {
      spice::MosfetParams p = nominal;
      p.kp = nominal.kp * std::max(0.1, 1.0 + sigma * rng.normal());
      p.vt0 = nominal.vt0 * (1.0 + sigma * rng.normal());
      mos->set_params(p);
    }
  };
}

}  // namespace

McDcWorkload modulator_mismatch_workload(int sections, double sigma) {
  McDcWorkload w;
  w.build = [sections, sigma](spice::Circuit& c) {
    c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    cells::netlists::ModulatorCoreOptions mopt;
    const auto h =
        cells::netlists::build_modulator_core(c, sections, mopt, "mod_");
    c.add<spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
    c.add<spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);

    McDcTrialFns fns;
    fns.apply = mosfet_mismatch_apply(c, sigma);
    const auto out_p = h.out_p;
    const auto out_m = h.out_m;
    fns.measure = [out_p, out_m](const spice::SolutionView& sol) {
      return sol.voltage(out_p) - sol.voltage(out_m);
    };
    return fns;
  };
  return w;
}

McDcWorkload delay_line_mismatch_workload(int stages, double sigma) {
  McDcWorkload w;
  w.build = [stages, sigma](spice::Circuit& c) {
    c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    cells::netlists::DelayStageOptions dopt;
    const auto h =
        cells::netlists::build_delay_line_chain(c, stages, dopt, "dl_");
    c.add<spice::CurrentSource>("Iin", c.ground(), h.in, 5e-6);

    McDcTrialFns fns;
    fns.apply = mosfet_mismatch_apply(c, sigma);
    const auto out = h.out;
    fns.measure = [out](const spice::SolutionView& sol) {
      return sol.voltage(out);
    };
    return fns;
  };
  return w;
}

}  // namespace si::analysis
