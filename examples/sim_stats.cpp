// sim_stats: run the paper's two transistor-level workloads (Table 1
// delay-line chain, Table 2 modulator core) with solver telemetry
// enabled and report what the engines actually did — Newton iterations,
// factorizations vs symbolic reuses, re-pivot and pattern-miss events,
// step accept/reject/clamp statistics — as a table or JSON.
//
//   sim_stats [--json] [--stages=N] [--sections=N] [--periods=P]
//             [--adaptive] [--engine=event|monolithic]
//
// With --engine=event the runs go through the event-driven multi-rate
// engine (src/event) and the report gains the partition statistics:
// blocks, block solves vs skips, whole steps skipped, latency ratio.
//
// Exit status is nonzero when a run had to accept dt_min-clamped steps
// above lte_tol (adaptive mode), grew a stamp pattern on a miss, or — under
// the event engine — when partitioning degraded: the circuit collapsed
// into a single block, or a scoped solve failed to converge and forced
// a full activation.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"
#include "runtime/env.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
namespace nets = si::cells::netlists;

struct RunSummary {
  std::string workload;
  std::size_t unknowns = 0;
  std::size_t points = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t clamped = 0;
  // Event-engine fields (all zero under the monolithic engine).
  std::uint64_t blocks = 0;
  std::uint64_t block_solves = 0;
  std::uint64_t block_skips = 0;
  std::uint64_t steps_skipped = 0;
};

double latency_ratio(const RunSummary& s) {
  const double events = static_cast<double>(s.block_solves + s.block_skips);
  return events > 0.0 ? static_cast<double>(s.block_skips) / events : 0.0;
}

RunSummary summarize(const char* workload, const Circuit& c,
                     const TransientResult& r) {
  RunSummary s;
  s.workload = workload;
  s.unknowns = c.system_size();
  s.points = r.time.size();
  s.accepted = r.steps_accepted;
  s.rejected = r.steps_rejected;
  s.clamped = r.lte_clamped_steps;
  s.blocks = r.event_blocks;
  s.block_solves = r.event_block_solves;
  s.block_skips = r.event_block_skips;
  s.steps_skipped = r.event_steps_skipped;
  return s;
}

RunSummary run_delay_line(int stages, double periods, bool adaptive,
                          TransientEngine engine) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::DelayStageOptions opt;
  const auto h = nets::build_delay_line_chain(c, stages, opt, "dl_");
  const double T = opt.pair.clock_period;
  c.add<CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<SineWave>(0.0, 5e-6, 1.0 / (8.0 * T)));
  TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.adaptive = adaptive;
  topt.engine = engine;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out));
  const auto r = tr.run();
  return summarize("table1_delay_line", c, r);
}

RunSummary run_modulator(int sections, double periods, bool adaptive,
                         TransientEngine engine) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  c.add<CurrentSource>(
      "Iinp", c.ground(), h.in_p,
      std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T)));
  c.add<CurrentSource>(
      "Iinm", c.ground(), h.in_m,
      std::make_unique<SineWave>(0.0, -4e-6, 1.0 / (8.0 * T)));
  TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.adaptive = adaptive;
  topt.engine = engine;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  const auto r = tr.run();
  return summarize("table2_modulator", c, r);
}

void print_summary(const RunSummary& s, bool event_engine) {
  std::printf(
      "%-18s unknowns=%-4zu points=%-6zu accepted=%llu rejected=%llu "
      "lte_clamped=%llu",
      s.workload.c_str(), s.unknowns, s.points,
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.clamped));
  if (event_engine)
    std::printf(" blocks=%llu block_skips=%llu steps_skipped=%llu "
                "latency=%.3f",
                static_cast<unsigned long long>(s.blocks),
                static_cast<unsigned long long>(s.block_skips),
                static_cast<unsigned long long>(s.steps_skipped),
                latency_ratio(s));
  std::putchar('\n');
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool adaptive = false;
  int stages = 4;
  int sections = 2;
  double periods = 1.0;
  TransientEngine engine = TransientEngine::kAuto;
  // Strict counts: "--sections=8x" is an error, not 8 sections.
  const auto count_flag = [](const char* name, const char* raw) {
    try {
      return static_cast<int>(si::runtime::parse_long(name, raw, 1, INT_MAX));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "sim_stats: %s\n", e.what());
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else if (std::strcmp(argv[i], "--adaptive") == 0) adaptive = true;
    else if (std::strncmp(argv[i], "--stages=", 9) == 0)
      stages = count_flag("--stages", argv[i] + 9);
    else if (std::strncmp(argv[i], "--sections=", 11) == 0)
      sections = count_flag("--sections", argv[i] + 11);
    else if (std::strncmp(argv[i], "--periods=", 10) == 0)
      periods = std::atof(argv[i] + 10);
    else if (std::strcmp(argv[i], "--engine=event") == 0)
      engine = TransientEngine::kEvent;
    else if (std::strcmp(argv[i], "--engine=monolithic") == 0)
      engine = TransientEngine::kMonolithic;
    else {
      std::fprintf(stderr,
                   "usage: sim_stats [--json] [--adaptive] [--stages=N] "
                   "[--sections=N] [--periods=P] "
                   "[--engine=event|monolithic]\n");
      return 2;
    }
  }
  if (periods <= 0.0) {
    std::fprintf(stderr, "sim_stats: periods must be > 0\n");
    return 2;
  }
  const bool event_engine = engine == TransientEngine::kEvent;
  if (event_engine && adaptive) {
    std::fprintf(stderr,
                 "sim_stats: --engine=event runs a fixed grid; drop "
                 "--adaptive\n");
    return 2;
  }

  si::obs::set_enabled(true);
  si::obs::reset();

  const RunSummary dl = run_delay_line(stages, periods, adaptive, engine);
  const RunSummary mod = run_modulator(sections, periods, adaptive, engine);

  if (json) {
    std::printf("{\"runs\": [");
    bool first = true;
    for (const auto* s : {&dl, &mod}) {
      std::printf(
          "%s{\"workload\": \"%s\", \"unknowns\": %zu, \"points\": %zu, "
          "\"steps_accepted\": %llu, \"steps_rejected\": %llu, "
          "\"lte_clamped_steps\": %llu, \"event_blocks\": %llu, "
          "\"event_block_solves\": %llu, \"event_block_skips\": %llu, "
          "\"event_steps_skipped\": %llu, \"latency_ratio\": %.6f}",
          first ? "" : ", ", s->workload.c_str(), s->unknowns, s->points,
          static_cast<unsigned long long>(s->accepted),
          static_cast<unsigned long long>(s->rejected),
          static_cast<unsigned long long>(s->clamped),
          static_cast<unsigned long long>(s->blocks),
          static_cast<unsigned long long>(s->block_solves),
          static_cast<unsigned long long>(s->block_skips),
          static_cast<unsigned long long>(s->steps_skipped),
          latency_ratio(*s));
      first = false;
    }
    std::printf("], \"telemetry\": %s}\n", si::obs::snapshot_json().c_str());
  } else {
    print_summary(dl, event_engine);
    print_summary(mod, event_engine);
    std::fputs(si::obs::snapshot_table().c_str(), stdout);
  }

  const std::uint64_t misses =
      si::obs::counter("mna.pattern_misses").value();
  const std::uint64_t clamped = dl.clamped + mod.clamped;
  if (misses > 0 || clamped > 0) {
    std::fprintf(stderr,
                 "sim_stats: degraded run — pattern_misses=%llu, "
                 "lte_clamped_steps=%llu\n",
                 static_cast<unsigned long long>(misses),
                 static_cast<unsigned long long>(clamped));
    return 1;
  }
  if (event_engine) {
    // Degraded partitioning: the paper's workloads split into many
    // switch-separated blocks — a collapse to a single block (beyond
    // the rail block) or a forced full activation after a scoped
    // convergence failure means latency exploitation is not working.
    const std::uint64_t full_activations =
        si::obs::counter("event.full_activations").value();
    if (dl.blocks <= 2 || mod.blocks <= 2 || full_activations > 0) {
      std::fprintf(stderr,
                   "sim_stats: degraded partitioning — blocks=%llu/%llu, "
                   "event.full_activations=%llu\n",
                   static_cast<unsigned long long>(dl.blocks),
                   static_cast<unsigned long long>(mod.blocks),
                   static_cast<unsigned long long>(full_activations));
      return 1;
    }
  }
  return 0;
}
