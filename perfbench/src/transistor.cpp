// transistor_sim: the largest device-level jobs a user runs at default
// settings.  A Transient::run over 4 clock periods of the 128-section
// modulator core (2177 unknowns, above the Schur auto-threshold), then
// 1000-trial analysis::monte_carlo_dc jobs on the 32-section mismatch
// workload at the default batch width.  The Monte-Carlo jobs are the
// workload's latency samples: the transient's step times swing with the
// pool's thread scheduling far more than whole jobs do.
#include <time.h>

#include <memory>

#include "analysis/mc_batch.hpp"
#include "bench.hpp"
#include "erc/check.hpp"
#include "runtime/parallel.hpp"
#include "si/netlists.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"

namespace pb {
namespace {

namespace nets = si::cells::netlists;
using namespace si::spice;

const char* solver_name(SolverKind k) {
  switch (k) {
    case SolverKind::kAuto: return "auto";
    case SolverKind::kDense: return "dense";
    case SolverKind::kSparse: return "sparse";
    case SolverKind::kSchur: return "schur";
  }
  return "?";
}

// Counters the transient reports; read right after it so the
// Monte-Carlo run that follows does not mix into them.
const char* const kTranCounts[] = {
    "mna.newton_iterations", "mna.symbolic_factors", "mna.numeric_refactors",
    "transient.steps_accepted", "transient.steps_rejected",
    "schur.partitions", "schur.fallbacks"};
// CPU time [s] of the process, all threads.
double cpu_now_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// How long prepare()'s ERC gate took [s]; -1 until it has run.
double gate_s = -1.0;

const char* const kTranTimers[] = {
    "mna.newton", "linalg.sparse.factor", "linalg.sparse.refactor",
    "schur.parallel_factor", "schur.interface_solve"};

class Transistor : public Workload {
 public:
  explicit Transistor(const WorkloadConfig& cfg) : cfg_(cfg) {}

  void setup() override {
    sections_ = cfg_.smoke ? 2 : 128;
    periods_ = cfg_.smoke ? 1.0 : 4.0;
    mc_sections_ = cfg_.smoke ? 2 : 32;
    mc_trials_ = cfg_.smoke ? 40 : 1000;
    mc_jobs_ = cfg_.smoke ? 2 : 4;

    circuit_ = std::make_unique<Circuit>();
    Circuit& c = *circuit_;
    nets::ModulatorCoreOptions opt;
    {
      ScopedSpan s("si.build");
      c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
      const auto h = nets::build_modulator_core(c, sections_, opt, "mod_");
      const double T = opt.stage.pair.clock_period;
      c.add<CurrentSource>("Iinp", c.ground(), h.in_p,
                           std::make_unique<SineWave>(0.0, 4e-6,
                                                      1.0 / (8.0 * T)));
      c.add<CurrentSource>("Iinm", c.ground(), h.in_m,
                           std::make_unique<SineWave>(0.0, -4e-6,
                                                      1.0 / (8.0 * T)));
      probe_ = c.node_name(h.out_p);
      TransientOptions topt;
      topt.t_stop = periods_ * T;
      topt.dt = T / 200.0;
      topt.erc_gate = false;  // prepare() calls the same gate, once
      tran_ = std::make_unique<Transient>(c, topt);
      tran_->probe_voltage(probe_);
    }
    mc_workload_ = si::analysis::modulator_mismatch_workload(mc_sections_);
  }

  // Transient::run checks the circuit with the ERC gate by default.  On
  // the 128-section core the gate takes several times longer than the
  // run itself, and deck_verify already times erc::check, so it runs
  // here, once per process, and stays out of tran_s: a solver change
  // then moves tran_s in full.  Every pass builds the same circuit.
  void prepare() override {
    setup();
    ScopedSpan gate("erc.check");
    si::erc::enforce(*circuit_);
    gate_s = gate.close();
  }

  PassOut run_pass(bool traced) override {
    PassOut out;
    const std::size_t mark = Tracer::instance().size();
    out.resolved.set("unknowns",
                     static_cast<double>(circuit_->system_size()));
    out.resolved.set("solver", solver_name(resolve_solver(
                                   SolverKind::kAuto,
                                   circuit_->system_size())));
    out.resolved.set("engine",
                     resolve_engine(TransientEngine::kAuto, false) ==
                             TransientEngine::kEvent
                         ? "event"
                         : "monolithic");
    out.resolved.set("mc_batch", static_cast<double>(
                                     si::analysis::mc_batch_lanes(0)));
    out.resolved.set("threads", static_cast<double>(
                                    si::runtime::thread_count()));

    // The transient's headline figure is the CPU time it takes, all
    // threads.  Its wall time is kept too, but not gated: on a shared
    // host it doubles for spells of seconds to minutes in which waking
    // the pool's threads is slow, while its CPU time moves by a tenth.
    TransientResult r;
    ++out.ops;
    try {
      const double cpu0 = cpu_now_s();
      ScopedSpan run("spice.tran_run");
      r = tran_->run();
      out.pass_wall_s = run.close();
      out.pass_s = cpu_now_s() - cpu0;
    } catch (const std::exception& e) {
      out.fail(std::string("transient: ") + e.what());
      return out;
    }
    if (r.lte_clamped_steps != 0) out.fail("transient: lte-clamped steps");
    const std::vector<double>& w = r.signal("v(" + probe_ + ")");
    out.outputs.set("tran.points", static_cast<double>(w.size()));
    double sum = 0.0;
    for (double v : w) sum += v;
    out.outputs.set("tran.mean_v", sum / static_cast<double>(w.size()));
    for (int k = 0; k <= 8; ++k) {
      const std::size_t i = (w.size() - 1) * static_cast<std::size_t>(k) / 8;
      out.outputs.set("tran.v" + std::to_string(k), w[i]);
    }
    if (traced) {
      out.layers.set("spice.tran_run_s",
                     Tracer::instance().sum_since(mark, "spice.tran_run"));
      for (const char* n : kTranCounts) out.layers.set(n, obs_counter(n));
      if (gate_s >= 0.0) out.layers.set("erc.check_s", gate_s);
      for (const char* n : kTranTimers)
        out.layers.set(std::string(n) + "_s", obs_timer_s(n));
      out.resolved.set("schur_engaged", obs_counter("schur.partitions") > 0);
    }

    // The Monte-Carlo jobs: the same 1000-trial run submitted four
    // times, each one job whose latency a user waits on.  Every repeat
    // must give the same statistics.
    si::analysis::McBatchOptions mo;
    mo.seed0 = 1 + cfg_.seed;
    for (int job = 0; job < mc_jobs_; ++job) {
      ++out.ops;
      try {
        ScopedSpan mc("analysis.mc_dc");
        const si::analysis::McStatistics st =
            si::analysis::monte_carlo_dc(mc_trials_, mc_workload_, mo);
        const double dt = mc.close();
        out.items_s += dt;
        out.items += static_cast<double>(st.count());
        out.job_ms.push_back(dt * 1e3);
        if (st.count() != static_cast<std::size_t>(mc_trials_))
          out.fail("monte_carlo_dc: missing samples");
        if (job == 0) {
          out.outputs.set("mc.mean_v", st.mean);
          out.outputs.set("mc.sigma_v", st.sigma);
        } else if (st.mean != out.outputs.find("mc.mean_v")->as_number() ||
                   st.sigma != out.outputs.find("mc.sigma_v")->as_number()) {
          out.fail("monte_carlo_dc: a repeat gave other statistics");
        }
      } catch (const std::exception& e) {
        out.fail(std::string("monte_carlo_dc: ") + e.what());
      }
    }
    if (traced) {
      const double lanes = static_cast<double>(si::analysis::mc_batch_lanes(0));
      const double filled = obs_counter("mc.batch.lanes_filled");
      const double batches = obs_counter("mc.batch.batches");
      out.layers.set("analysis.mc_dc_s",
                     Tracer::instance().sum_since(mark, "analysis.mc_dc") /
                         mc_jobs_);
      out.layers.set("mc.batch.lane_fill",
                     batches > 0.0 ? filled / (batches * lanes) : 0.0);
      out.layers.set("mc.batch.eject_ratio",
                     filled > 0.0
                         ? obs_counter("mc.batch.lane_ejections") / filled
                         : 0.0);
      out.layers.set("mc.batch.scalar_solves",
                     obs_counter("mc.batch.scalar_solves"));
      for (const char* n :
           {"runtime.pool_tasks", "runtime.pool_steals", "runtime.pool_helped"})
        out.layers.set(n, obs_counter(n));
    }
    return out;
  }

 private:
  WorkloadConfig cfg_;
  int sections_ = 0, mc_sections_ = 0, mc_trials_ = 0, mc_jobs_ = 0;
  double periods_ = 0.0;
  std::unique_ptr<Circuit> circuit_;
  std::unique_ptr<Transient> tran_;
  std::string probe_;
  si::analysis::McDcWorkload mc_workload_;
};

}  // namespace

std::unique_ptr<Workload> make_transistor(const WorkloadConfig& cfg) {
  return std::make_unique<Transistor>(cfg);
}

}  // namespace pb
