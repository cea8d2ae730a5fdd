#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "erc/check.hpp"
#include "event/event_transient.hpp"
#include "obs/telemetry.hpp"
#include "runtime/env.hpp"
#include "spice/elements.hpp"
#include "spice/mna.hpp"

namespace si::spice {

namespace {

/// Transient telemetry handles, hoisted once so the step loop records
/// through preallocated atomics only.
struct TransientTelemetry {
  obs::Counter& steps_accepted = obs::counter("transient.steps_accepted");
  obs::Counter& steps_rejected = obs::counter("transient.steps_rejected");
  obs::Counter& lte_clamped = obs::counter("transient.lte_clamped");
  obs::Counter& runs = obs::counter("transient.runs");
  obs::Histogram& dt_hist = obs::histogram("transient.dt");

  static TransientTelemetry& get() {
    static TransientTelemetry t;
    return t;
  }
};

}  // namespace

TransientEngine transient_engine_from_env() {
  // Strict parse: an unknown engine name used to fall back to kAuto
  // silently, so SI_TRANSIENT=evnt benchmarked the monolithic engine
  // while claiming event timings.  It now throws.
  const auto v = runtime::parse_env_choice("SI_TRANSIENT",
                                           {"auto", "event", "monolithic"});
  if (!v || *v == "auto") return TransientEngine::kAuto;
  return *v == "event" ? TransientEngine::kEvent
                       : TransientEngine::kMonolithic;
}

TransientEngine resolve_engine(TransientEngine requested, bool adaptive) {
  if (adaptive) return TransientEngine::kMonolithic;
  if (requested != TransientEngine::kAuto) return requested;
  const TransientEngine env = transient_engine_from_env();
  if (env != TransientEngine::kAuto) return env;
  return TransientEngine::kMonolithic;
}

const std::vector<double>& TransientResult::signal(
    const std::string& name) const {
  auto it = signals.find(name);
  if (it == signals.end())
    throw std::out_of_range("TransientResult: no signal named " + name);
  return it->second;
}

Transient::Transient(Circuit& c, TransientOptions opt)
    : circuit_(&c), opt_(opt) {
  if (opt_.t_stop <= 0.0 || opt_.dt <= 0.0)
    throw std::invalid_argument("Transient: t_stop and dt must be > 0");
}

void Transient::probe_voltage(const std::string& node_name) {
  voltage_probes_.push_back(node_name);
}

void Transient::probe_current(const std::string& vsource_name) {
  current_probes_.push_back(vsource_name);
}

void Transient::set_initial_voltage(const std::string& node_name,
                                    double volts) {
  initial_voltages_.emplace_back(node_name, volts);
  opt_.start_from_dc = false;
}

TransientResult Transient::run(
    const std::function<void(double, const SolutionView&)>& on_step) {
  Circuit& c = *circuit_;
  if (resolve_engine(opt_.engine, opt_.adaptive) == TransientEngine::kEvent) {
    event::EventTransient ev(c, opt_);
    for (const auto& n : voltage_probes_) ev.probe_voltage(n);
    for (const auto& n : current_probes_) ev.probe_current(n);
    for (const auto& [name, volts] : initial_voltages_)
      ev.set_initial_voltage(name, volts);
    return ev.run(on_step);
  }
  if (opt_.erc_gate) erc::enforce(c);
  c.finalize();

  TransientTelemetry& tm = TransientTelemetry::get();
  obs::TraceSpan run_span("transient.run");
  tm.runs.add();

  // Resolve probes up front, deduplicating repeats: a node (or source)
  // probed twice must collapse to ONE sink — two sinks feeding the same
  // result.signals vector would interleave doubled samples.  A label
  // that resolves to two different targets is a genuine collision and
  // is rejected instead.
  std::vector<std::pair<std::string, NodeId>> v_probes;
  for (const auto& n : voltage_probes_) {
    const std::string label = "v(" + n + ")";
    const NodeId node = c.node(n);
    const auto it =
        std::find_if(v_probes.begin(), v_probes.end(),
                     [&](const auto& p) { return p.first == label; });
    if (it != v_probes.end()) {
      if (it->second != node)
        throw std::invalid_argument("Transient: probe label collision on " +
                                    label);
      continue;
    }
    v_probes.emplace_back(label, node);
  }
  std::vector<std::pair<std::string, const VoltageSource*>> i_probes;
  for (const auto& n : current_probes_) {
    const auto* vs = dynamic_cast<const VoltageSource*>(c.find(n));
    if (!vs)
      throw std::invalid_argument("Transient: no voltage source named " + n);
    const std::string label = "i(" + n + ")";
    const auto it =
        std::find_if(i_probes.begin(), i_probes.end(),
                     [&](const auto& p) { return p.first == label; });
    if (it != i_probes.end()) {
      if (it->second != vs)
        throw std::invalid_argument("Transient: probe label collision on " +
                                    label);
      continue;
    }
    i_probes.emplace_back(label, vs);
  }

  // One engine for the whole run (DC operating point included): the
  // sparsity pattern, symbolic factorization, stamp-slot memos, and
  // solve workspaces are built once and reused — the time loop
  // allocates nothing.
  MnaEngine engine(c);

  linalg::Vector x(c.system_size(), 0.0);
  if (opt_.start_from_dc) {
    DcOptions dco;
    dco.newton = opt_.newton;
    dco.erc_gate = false;  // already checked (or opted out) above
    DcResult op = dc_operating_point(c, engine, dco);
    x = std::move(op.x);
  } else {
    for (const auto& [name, volts] : initial_voltages_) {
      const NodeId node = c.node(name);
      if (node != kGroundNode)
        x[static_cast<std::size_t>(node - 1)] = volts;
    }
    StampContext ctx0;
    ctx0.mode = AnalysisMode::kDcOperatingPoint;
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx0);
  }

  // Fixed grid: full_steps whole dt intervals plus, when t_stop is not
  // an integer multiple of dt, one exact partial step — the old
  // llround() grid silently overshot (rounding up) or truncated
  // (rounding down) so result.time.back() missed t_stop.  The 1e-12
  // slack absorbs last-ulp ratio noise; a remainder below 1e-9*dt is
  // treated as an exact multiple rather than a denormal final step.
  const double ratio = opt_.t_stop / opt_.dt;
  const auto full_steps = static_cast<std::size_t>(ratio * (1.0 + 1e-12));
  double remainder =
      opt_.t_stop - static_cast<double>(full_steps) * opt_.dt;
  if (remainder <= 1e-9 * opt_.dt) remainder = 0.0;
  const std::size_t steps = full_steps + (remainder > 0.0 ? 1 : 0);

  TransientResult result;
  result.time.reserve(steps + 1);
  // Resolve each probe's signal vector once: the map lookups stay out
  // of the per-step hot path, and pointers into the node-based
  // unordered_map stay valid while it grows.
  std::vector<std::pair<NodeId, std::vector<double>*>> v_sinks;
  v_sinks.reserve(v_probes.size());
  for (const auto& [label, node] : v_probes) {
    auto& vec = result.signals[label];
    vec.reserve(steps + 1);
    v_sinks.emplace_back(node, &vec);
  }
  std::vector<std::pair<int, std::vector<double>*>> i_sinks;
  i_sinks.reserve(i_probes.size());
  for (const auto& [label, vs] : i_probes) {
    auto& vec = result.signals[label];
    vec.reserve(steps + 1);
    i_sinks.emplace_back(vs->branch(), &vec);
  }

  auto record = [&](double t, const SolutionView& sol) {
    result.time.push_back(t);
    for (const auto& [node, vec] : v_sinks) vec->push_back(sol.voltage(node));
    for (const auto& [branch, vec] : i_sinks)
      vec->push_back(sol.branch_current(branch));
    if (on_step) on_step(t, sol);
  };

  {
    SolutionView sol0(c, x);
    record(0.0, sol0);
  }

  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = opt_.dt;
  ctx.gmin = opt_.newton.gmin;
  ctx.integrator = opt_.integrator;

  if (!opt_.adaptive) {
    for (std::size_t k = 1; k <= steps; ++k) {
      const bool last = k == steps;
      if (last && remainder > 0.0) ctx.dt = remainder;  // exact final step
      ctx.time = last ? opt_.t_stop : static_cast<double>(k) * opt_.dt;
      engine.newton(ctx, x, opt_.newton);
      SolutionView sol(c, x);
      for (const auto& e : c.elements()) e->accept(sol, ctx);
      record(ctx.time, sol);
      ++result.steps_accepted;
      tm.steps_accepted.add();
      tm.dt_hist.record(ctx.dt);
    }
    return result;
  }

  // Adaptive stepping.  Element reactive state only changes in
  // accept(), so a step can be re-solved at a different dt freely.
  const std::size_t n_nodes = c.node_count() - 1;
  const double dt_min = opt_.dt_min > 0 ? opt_.dt_min : opt_.dt / 1024.0;
  const double dt_max = opt_.dt_max > 0 ? opt_.dt_max : opt_.dt * 16.0;
  double t = 0.0;
  double dt = opt_.dt;
  linalg::Vector x_trap;  // hoisted: the loop reuses their storage
  linalg::Vector x_be;

  // Stimulus waveforms whose breakpoints (pulse edges, PWL knots) the
  // stepper must land on instead of stepping over: a clock edge inside
  // an oversized step would otherwise be smeared across it, and the LTE
  // estimate — evaluated only at step ends — cannot see the miss.
  std::vector<const Waveform*> bp_waves;
  if (opt_.honor_breakpoints) {
    for (const auto& e : c.elements()) {
      if (const auto* vs = dynamic_cast<const VoltageSource*>(e.get()))
        bp_waves.push_back(&vs->waveform());
      else if (const auto* is = dynamic_cast<const CurrentSource*>(e.get()))
        bp_waves.push_back(&is->waveform());
      else if (const auto* sw = dynamic_cast<const Switch*>(e.get()))
        bp_waves.push_back(&sw->control());
    }
  }
  std::vector<double> bp_scratch;

  while (t < opt_.t_stop - 1e-18 * opt_.t_stop) {
    dt = std::min(dt, opt_.t_stop - t);
    // Clamp the step to the earliest breakpoint inside it (but never
    // below dt_min: a breakpoint closer than that is hit on the next
    // step's leading edge instead of forcing a denormal step).
    double dt_step = dt;
    if (!bp_waves.empty()) {
      bp_scratch.clear();
      for (const Waveform* w : bp_waves) w->breakpoints(t, t + dt, bp_scratch);
      for (const double bt : bp_scratch)
        dt_step = std::min(dt_step, std::max(bt - t, dt_min));
    }
    // When the remaining window is what clamped dt this is the final
    // step: pin it to t_stop exactly instead of t + dt's rounded sum.
    ctx.time = (opt_.t_stop - t) <= dt_step ? opt_.t_stop : t + dt_step;
    ctx.dt = dt_step;

    ctx.integrator = Integrator::kTrapezoidal;
    x_trap = x;
    engine.newton(ctx, x_trap, opt_.newton);
    // The BE companion solve estimates the same step's LTE, so the
    // converged trapezoidal solution is the best available warm start —
    // it is typically within the error estimate of the BE answer.
    ctx.integrator = Integrator::kBackwardEuler;
    x_be = x_trap;
    engine.newton(ctx, x_be, opt_.newton);

    double err = 0.0;
    for (std::size_t i = 0; i < n_nodes; ++i)
      err = std::max(err, std::abs(x_trap[i] - x_be[i]));

    if (err > opt_.lte_tol && dt_step > dt_min * 1.0001) {
      dt = std::max(0.5 * dt_step, dt_min);
      ++result.steps_rejected;
      tm.steps_rejected.add();
      continue;  // reject and retry with a smaller step
    }
    if (err > opt_.lte_tol) {
      // dt already at dt_min: the step is accepted anyway, so the
      // requested accuracy was NOT met here.  Report it instead of
      // recovering silently.
      ++result.lte_clamped_steps;
      tm.lte_clamped.add();
    }
    // Accept the (more accurate) trapezoidal solution.
    x = x_trap;
    ctx.integrator = Integrator::kTrapezoidal;
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
    t = ctx.time;
    record(t, sol);
    ++result.steps_accepted;
    tm.steps_accepted.add();
    tm.dt_hist.record(dt_step);
    // Grow from the pre-clamp step size: a breakpoint landing should not
    // permanently shrink the stride the controller had earned.
    if (err < 0.25 * opt_.lte_tol) dt = std::min(2.0 * dt, dt_max);
  }
  return result;
}

}  // namespace si::spice
