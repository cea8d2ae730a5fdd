#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "analysis/mc_batch.hpp"
#include "erc/check.hpp"
#include "runtime/result_cache.hpp"
#include "spice/deck.hpp"
#include "spice/mosfet.hpp"
#include "spice/parser.hpp"

namespace si::serve {

namespace {

[[noreturn]] void bad_request(const std::string& why) {
  throw JobError("bad_request", why);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

double number_field(const Json& v, const char* key) {
  if (!v.is_number()) bad_request(std::string(key) + " must be a number");
  return v.as_number();
}

long integer_field(const Json& v, const char* key, long min, long max) {
  const double d = number_field(v, key);
  if (d != std::floor(d) || d < static_cast<double>(min) ||
      d > static_cast<double>(max))
    bad_request(std::string(key) + " must be an integer in [" +
                std::to_string(min) + ", " + std::to_string(max) + "]");
  return static_cast<long>(d);
}

bool bool_field(const Json& v, const char* key) {
  if (!v.is_bool()) bad_request(std::string(key) + " must be a bool");
  return v.as_bool();
}

const std::string& string_field(const Json& v, const char* key) {
  if (!v.is_string()) bad_request(std::string(key) + " must be a string");
  return v.as_string();
}

/// True when a trimmed lowercase deck line starts a .tran directive.
bool has_tran_directive(const std::string& deck) {
  std::istringstream in(deck);
  std::string raw;
  while (std::getline(in, raw)) {
    const auto b = raw.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    if (lower(raw.substr(b, 5)) == ".tran") return true;
  }
  return false;
}

/// Removes the analysis directives run_deck understands, leaving the
/// element cards (used by the op / mc paths so directives in a reused
/// deck do not trigger unrequested analyses).
std::string strip_directives(const std::string& deck) {
  std::ostringstream out;
  std::istringstream in(deck);
  std::string raw;
  while (std::getline(in, raw)) {
    const auto b = raw.find_first_not_of(" \t\r");
    if (b != std::string::npos) {
      const std::string low = lower(raw.substr(b));
      if (low.rfind(".tran", 0) == 0 || low.rfind(".ac", 0) == 0 ||
          low.rfind(".noise", 0) == 0 || low.rfind(".probe", 0) == 0 ||
          low.rfind(".op", 0) == 0)
        continue;
    }
    out << raw << "\n";
  }
  return out.str();
}

Analysis resolve_analysis(const JobRequest& r) {
  if (r.analysis != Analysis::kAuto) return r.analysis;
  return has_tran_directive(r.deck) ? Analysis::kTran : Analysis::kOp;
}

/// "v(node)" -> "node"; a bare node name passes through.
std::string measure_node(const std::string& measure) {
  if (measure.size() >= 4 && lower(measure.substr(0, 2)) == "v(" &&
      measure.back() == ')')
    return measure.substr(2, measure.size() - 3);
  if (!measure.empty() && measure.find('(') == std::string::npos)
    return measure;
  bad_request("mc_measure must be \"v(<node>)\"");
}

/// ERC front gate shared by every analysis: error-severity findings
/// (including parse failures) become a structured JobError; the solver
/// paths then run with erc_gate = false so the deck is linted exactly
/// once per job.
void erc_gate(const std::string& deck) {
  erc::DeckReport report = erc::check_deck(deck);
  if (report.parse_ok && report.sink.ok()) return;
  report.sink.sort_by_line();
  // The sink's own JSON rendering is the diagnostic contract the CLI
  // already ships; embed it as structured data, not as a string.
  Json diags = Json::parse(report.sink.json());
  throw JobError(report.parse_ok ? "erc_failed" : "parse_error",
                 report.parse_ok
                     ? "electrical rule check failed"
                     : "deck failed to parse",
                 std::move(diags));
}

double node_voltage(const linalg::Vector& x, spice::NodeId n) {
  // MNA unknown layout: x = [v(1..N-1), i(branches)]; ground is 0 V.
  return n == 0 ? 0.0 : x[static_cast<std::size_t>(n) - 1];
}

Json op_payload(const spice::Circuit& c, const spice::DcResult& op) {
  Json volts = Json::object();
  for (spice::NodeId n = 1; n < static_cast<spice::NodeId>(c.node_count());
       ++n)
    volts.set(c.node_name(n), node_voltage(op.x, n));
  Json out = Json::object();
  out.set("analysis", "op");
  out.set("node_voltages", std::move(volts));
  out.set("iterations", op.iterations);
  return out;
}

Json run_op(const JobRequest& r, const spice::DeckRunOptions& opt) {
  const auto res = spice::run_deck(strip_directives(r.deck), opt);
  return op_payload(res.circuit, res.op);
}

Json run_tran(const JobRequest& r, const spice::DeckRunOptions& opt) {
  if (!has_tran_directive(r.deck))
    bad_request("analysis \"tran\" needs a .tran card in the deck");
  const auto res = spice::run_deck(r.deck, opt);
  const spice::TransientResult& tr = *res.tran;

  Json time = Json::array();
  for (double t : tr.time) time.push(t);
  Json signals = Json::object();
  for (const auto& [name, wave] : tr.signals) {
    Json w = Json::array();
    for (double v : wave) w.push(v);
    signals.set(name, std::move(w));
  }
  Json out = Json::object();
  out.set("analysis", "tran");
  out.set("time", std::move(time));
  out.set("signals", std::move(signals));
  out.set("steps_accepted", tr.steps_accepted);
  out.set("lte_clamped_steps", tr.lte_clamped_steps);
  return out;
}

Json run_mc(const JobRequest& r, const spice::DeckRunOptions& opt) {
  const std::string node_name = measure_node(r.mc_measure);
  const std::string deck = strip_directives(r.deck);

  // The one Monte-Carlo DC path: analysis::monte_carlo_dc with the
  // shared mismatch draw.  build() parses the deck into each context's
  // circuit; its checks throw on the first (nominal) build.
  analysis::McDcWorkload w;
  w.newton = opt.newton;  // carries the job's cancel token
  w.build = [&](spice::Circuit& c) {
    c = spice::parse_netlist(deck);
    // Circuit::node() creates on first use; a typoed measure node must
    // be an error, not a silently-floating extra unknown.
    const std::size_t nodes_before = c.node_count();
    const spice::NodeId probe = c.node(node_name);
    if (c.node_count() != nodes_before)
      bad_request("mc_measure node \"" + node_name + "\" is not in the deck");
    const bool has_mosfet = std::any_of(
        c.elements().begin(), c.elements().end(), [](const auto& e) {
          return dynamic_cast<const spice::Mosfet*>(e.get()) != nullptr;
        });
    if (!has_mosfet)
      bad_request("analysis \"mc\" needs at least one MOSFET to mismatch");
    analysis::McDcTrialFns fns;
    fns.apply = analysis::mosfet_mismatch_apply(c, r.mc_sigma);
    fns.measure = [probe](const spice::SolutionView& sol) {
      return sol.voltage(probe);
    };
    return fns;
  };

  // Trials stay sequential inside one job: the JobServer's workers are
  // the parallelism, and the cancel token is honoured every Newton
  // iteration regardless.
  analysis::McBatchOptions mo;
  mo.seed0 = r.mc_seed;
  mo.parallel = false;
  const analysis::McStatistics st =
      analysis::monte_carlo_dc(r.mc_trials, w, mo);

  Json out = Json::object();
  out.set("analysis", "mc");
  out.set("trials", r.mc_trials);
  out.set("measure", "v(" + node_name + ")");
  out.set("mean", st.mean);
  out.set("sigma", st.sigma);
  out.set("min", st.min);
  out.set("max", st.max);
  out.set("p05", st.percentile(0.05));
  out.set("p50", st.percentile(0.50));
  out.set("p95", st.percentile(0.95));
  return out;
}

}  // namespace

const char* analysis_name(Analysis a) {
  switch (a) {
    case Analysis::kAuto: return "auto";
    case Analysis::kOp: return "op";
    case Analysis::kTran: return "tran";
    case Analysis::kMc: return "mc";
  }
  return "?";
}

JobRequest parse_request(const Json& request) {
  if (!request.is_object()) bad_request("request must be a JSON object");
  JobRequest r;
  bool have_deck = false;
  for (const auto& [key, v] : request.members()) {
    if (key == "id") {
      r.id = string_field(v, "id");
    } else if (key == "deck") {
      r.deck = string_field(v, "deck");
      have_deck = true;
    } else if (key == "analysis") {
      const std::string a = lower(string_field(v, "analysis"));
      if (a == "auto")
        r.analysis = Analysis::kAuto;
      else if (a == "op")
        r.analysis = Analysis::kOp;
      else if (a == "tran")
        r.analysis = Analysis::kTran;
      else if (a == "mc")
        r.analysis = Analysis::kMc;
      else
        bad_request("analysis must be \"auto\", \"op\", \"tran\" or \"mc\"");
    } else if (key == "timeout_ms") {
      r.timeout_ms = number_field(v, "timeout_ms");
    } else if (key == "max_newton_iterations") {
      r.max_newton_iterations =
          static_cast<int>(integer_field(v, "max_newton_iterations", 1, 100000));
    } else if (key == "want_telemetry") {
      r.want_telemetry = bool_field(v, "want_telemetry");
    } else if (key == "no_cache") {
      r.no_cache = bool_field(v, "no_cache");
    } else if (key == "mc_trials") {
      r.mc_trials = static_cast<int>(integer_field(v, "mc_trials", 1, 100000));
    } else if (key == "mc_sigma") {
      r.mc_sigma = number_field(v, "mc_sigma");
      if (!(r.mc_sigma > 0.0 && r.mc_sigma < 1.0))
        bad_request("mc_sigma must be in (0, 1)");
    } else if (key == "mc_seed") {
      r.mc_seed = static_cast<std::uint64_t>(
          integer_field(v, "mc_seed", 0, 9007199254740992L));
    } else if (key == "mc_measure") {
      r.mc_measure = string_field(v, "mc_measure");
    } else {
      bad_request("unknown request key \"" + key + "\"");
    }
  }
  if (!have_deck || r.deck.empty()) bad_request("missing required \"deck\"");
  if (r.analysis == Analysis::kMc && r.mc_measure.empty())
    bad_request("analysis \"mc\" requires \"mc_measure\"");
  return r;
}

std::uint64_t request_cache_key(const JobRequest& r) {
  // Hash the *resolved* analysis so "auto" on a .tran deck and an
  // explicit "tran" on the same deck share one entry.  id / timeout /
  // want_telemetry / no_cache never affect the physics and are excluded.
  const Analysis a = resolve_analysis(r);
  runtime::Fnv1a h;
  h.str("serve.job").str(r.deck).u64(static_cast<std::uint64_t>(a));
  h.u64(static_cast<std::uint64_t>(r.max_newton_iterations));
  if (a == Analysis::kMc) {
    h.u64(static_cast<std::uint64_t>(r.mc_trials))
        .f64(r.mc_sigma)
        .u64(r.mc_seed)
        .str(r.mc_measure);
  }
  return h.digest();
}

Json run_job(const JobRequest& r, const runtime::CancelToken* cancel) {
  erc_gate(r.deck);

  spice::DeckRunOptions opt;
  opt.erc_gate = false;  // linted above, with deck-line attribution
  opt.newton.cancel = cancel;
  if (r.max_newton_iterations > 0)
    opt.newton.max_iterations = r.max_newton_iterations;

  try {
    switch (resolve_analysis(r)) {
      case Analysis::kOp:
        return run_op(r, opt);
      case Analysis::kTran:
        return run_tran(r, opt);
      case Analysis::kMc:
        return run_mc(r, opt);
      case Analysis::kAuto:
        break;  // resolved away above
    }
    throw JobError("internal", "unresolved analysis");
  } catch (const spice::ConvergenceError& e) {
    // The deck is structurally fine but the solve did not converge
    // (e.g. conflicting sources making the MNA system singular).
    throw JobError("convergence", e.what());
  } catch (const spice::ParseError& e) {
    // Directive-level errors (bad .tran card, unknown probe) surface
    // here; element-card errors were already caught by the ERC gate.
    throw JobError("parse_error", e.what());
  }
}

}  // namespace si::serve
