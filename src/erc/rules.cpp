// Rule implementations for the static electrical-rule checker: the
// generic SPICE structural pack (connectivity, floating gates, degenerate
// sources) and the paper-specific SI pack (Eq. (1)-(2) supply minimum,
// CMFF half-size mirrors, class-AB pair symmetry, two-phase clocking).
#include "erc/check.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "verify/phase.hpp"
#include "verify/verify.hpp"

namespace si::erc {

namespace {

using spice::Circuit;
using spice::Element;
using spice::Mosfet;
using spice::NodeId;
using spice::Terminal;

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(4);
  out << v;
  return out.str();
}

/// An element index and one of its terminals.
using Attachment = std::pair<std::size_t, Terminal>;

/// Shared per-check state: the circuit, every element's terminals, and
/// the per-node indices every rule walks instead of rescanning the
/// element list.
struct Ctx {
  const Circuit& c;
  const spice::ParseIndex* index;
  DiagnosticSink& sink;
  const ErcOptions& opt;
  /// terminals[k] belongs to c.elements()[k].
  std::vector<std::vector<Terminal>> terminals;
  /// attached[n] lists the terminals touching node n, in element order.
  std::vector<std::vector<Attachment>> attached;
  /// supply[n] is V(n) set by the first voltage source, in element
  /// order, between node n and ground (unset: no such source).
  std::vector<std::optional<double>> supply;

  explicit Ctx(const Circuit& circuit, const spice::ParseIndex* idx,
               DiagnosticSink& s, const ErcOptions& o)
      : c(circuit), index(idx), sink(s), opt(o) {
    const auto& elems = c.elements();
    terminals.reserve(elems.size());
    attached.resize(c.node_count());
    supply.resize(c.node_count());
    for (std::size_t k = 0; k < elems.size(); ++k) {
      terminals.push_back(elems[k]->terminals());
      const auto& t = terminals.back();
      for (const Terminal& term : t) attached[term.node].emplace_back(k, term);
      const auto* v = dynamic_cast<const spice::VoltageSource*>(elems[k].get());
      if (!v) continue;
      if (t[1].node == spice::kGroundNode && !supply[t[0].node])
        supply[t[0].node] = v->waveform().dc_value();
      else if (t[0].node == spice::kGroundNode && !supply[t[1].node])
        supply[t[1].node] = -v->waveform().dc_value();
    }
  }

  const Element& element(std::size_t k) const { return *c.elements()[k]; }

  std::size_t line_of_element(const std::string& name) const {
    return index ? index->element(name) : 0;
  }
  std::size_t line_of_node(NodeId n) const {
    return index ? index->node(c.node_name(n)) : 0;
  }
};

// ---------------------------------------------------------------------
// Generic SPICE pack
// ---------------------------------------------------------------------

/// spice.no-ground + spice.node-island: union-find over the element
/// graph; every component that does not contain ground is undriven.
void check_connectivity(Ctx& ctx) {
  const std::size_t n = ctx.c.node_count();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t a) {
    while (parent[a] != a) a = parent[a] = parent[parent[a]];
    return a;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    parent[find(a)] = find(b);
  };
  for (const auto& terms : ctx.terminals)
    for (std::size_t k = 1; k < terms.size(); ++k)
      unite(static_cast<std::size_t>(terms[k].node),
            static_cast<std::size_t>(terms[0].node));

  if (!ctx.c.elements().empty() && ctx.attached[0].empty()) {
    ctx.sink.report({Severity::kError, "spice.no-ground",
                     "no element is connected to ground (node 0)", 0, "",
                     "reference the circuit to node 0 so the MNA system "
                     "has a defined zero"});
  }

  const std::size_t ground_root = find(0);
  std::map<std::size_t, std::vector<NodeId>> islands;
  for (std::size_t i = 1; i < n; ++i)
    if (!ctx.attached[i].empty() && find(i) != ground_root)
      islands[find(i)].push_back(static_cast<NodeId>(i));
  for (const auto& [root, members] : islands) {
    std::ostringstream msg;
    msg << "node" << (members.size() > 1 ? "s" : "") << " ";
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (k) msg << ", ";
      msg << "'" << ctx.c.node_name(members[k]) << "'";
    }
    msg << " form" << (members.size() > 1 ? "" : "s")
        << " a subcircuit with no path to ground";
    ctx.sink.report({Severity::kError, "spice.node-island", msg.str(),
                     ctx.line_of_node(members.front()), "",
                     "connect the subcircuit to the rest of the circuit "
                     "or remove it"});
  }
}

/// spice.floating-gate / spice.dc-floating / spice.dangling-node /
/// spice.unused-node: per-node terminal census.
void check_node_usage(Ctx& ctx) {
  for (std::size_t i = 1; i < ctx.c.node_count(); ++i) {
    const auto& at = ctx.attached[i];
    const std::string& name = ctx.c.node_name(static_cast<NodeId>(i));
    if (at.empty()) {
      ctx.sink.report({Severity::kWarning, "spice.unused-node",
                       "node '" + name +
                           "' is referenced but no element connects to it",
                       ctx.line_of_node(static_cast<NodeId>(i)), "",
                       "remove the stray reference or wire the node up"});
      continue;
    }
    const bool all_blocking =
        std::all_of(at.begin(), at.end(),
                    [](const auto& p) { return p.second.dc_blocking; });
    if (all_blocking) {
      const auto gate = std::find_if(at.begin(), at.end(), [](const auto& p) {
        return std::string(p.second.role) == "g";
      });
      if (gate != at.end()) {
        const std::string& elem = ctx.element(gate->first).name();
        ctx.sink.report(
            {Severity::kError, "spice.floating-gate",
             "MOSFET '" + elem + "' gate node '" + name +
                 "' has no DC drive (only gate/capacitor terminals attach)",
             ctx.line_of_element(elem), elem,
             "drive the gate from a source, switch, or diode connection"});
      } else {
        ctx.sink.report({Severity::kWarning, "spice.dc-floating",
                         "node '" + name +
                             "' has no DC path (only capacitor or sensing "
                             "terminals attach)",
                         ctx.line_of_node(static_cast<NodeId>(i)), "",
                         "add a DC path (resistor or source) to define "
                         "the node's operating point"});
      }
    } else if (at.size() == 1) {
      const std::string& elem = ctx.element(at.front().first).name();
      ctx.sink.report({Severity::kWarning, "spice.dangling-node",
                       "node '" + name + "' connects only to '" + elem +
                           "' (single terminal)",
                       ctx.line_of_element(elem), elem,
                       "check for a typo in the node name"});
    }
  }
}

/// spice.duplicate-name: elements must be findable by name.
void check_duplicate_names(Ctx& ctx) {
  std::map<std::string, std::size_t> first;
  for (std::size_t k = 0; k < ctx.c.elements().size(); ++k) {
    const std::string& name = ctx.element(k).name();
    const auto [it, fresh] = first.emplace(name, k);
    if (!fresh) {
      ctx.sink.report({Severity::kError, "spice.duplicate-name",
                       "element name '" + name + "' is defined twice",
                       ctx.line_of_element(name), name,
                       "rename one of the elements"});
    }
  }
}

/// spice.shorted-source / spice.self-loop / spice.zero-value /
/// spice.bad-geometry / spice.zero-source: per-element sanity.
void check_elements(Ctx& ctx) {
  for (std::size_t k = 0; k < ctx.c.elements().size(); ++k) {
    const Element& e = ctx.element(k);
    const auto& terms = ctx.terminals[k];
    const std::size_t line = ctx.line_of_element(e.name());

    const bool out_shorted =
        terms.size() >= 2 && terms[0].node == terms[1].node;
    if (const auto* v = dynamic_cast<const spice::VoltageSource*>(&e)) {
      if (out_shorted) {
        ctx.sink.report({Severity::kError, "spice.shorted-source",
                         "voltage source '" + e.name() +
                             "' has both terminals on node '" +
                             ctx.c.node_name(terms[0].node) +
                             "' (singular branch equation)",
                         line, e.name(), "connect the terminals to "
                         "distinct nodes"});
      } else if (dynamic_cast<const spice::DcWave*>(&v->waveform()) &&
                 v->waveform().dc_value() == 0.0 &&
                 v->ac_magnitude() == 0.0) {
        ctx.sink.report({Severity::kNote, "spice.zero-source",
                         "voltage source '" + e.name() +
                             "' is identically 0 V (ammeter idiom?)",
                         line, e.name(), ""});
      }
    } else if (dynamic_cast<const spice::Vcvs*>(&e) ||
               dynamic_cast<const spice::Ccvs*>(&e)) {
      if (out_shorted)
        ctx.sink.report({Severity::kError, "spice.shorted-source",
                         "voltage-defined source '" + e.name() +
                             "' has both output terminals on node '" +
                             ctx.c.node_name(terms[0].node) + "'",
                         line, e.name(), "connect the output to distinct "
                         "nodes"});
    } else if (const auto* i =
                   dynamic_cast<const spice::CurrentSource*>(&e)) {
      if (out_shorted) {
        ctx.sink.report({Severity::kWarning, "spice.self-loop",
                         "current source '" + e.name() +
                             "' drives both terminals on node '" +
                             ctx.c.node_name(terms[0].node) +
                             "' (no effect)",
                         line, e.name(), ""});
      } else if (dynamic_cast<const spice::DcWave*>(&i->waveform()) &&
                 i->waveform().dc_value() == 0.0 &&
                 i->ac_magnitude() == 0.0) {
        ctx.sink.report({Severity::kNote, "spice.zero-source",
                         "current source '" + e.name() +
                             "' is identically 0 A",
                         line, e.name(), ""});
      }
    } else if (dynamic_cast<const spice::Resistor*>(&e) ||
               dynamic_cast<const spice::Capacitor*>(&e) ||
               dynamic_cast<const spice::Switch*>(&e)) {
      // Zero / negative values are rejected at construction (and show
      // up as spice.parse-error in decks), so only topology is left.
      if (out_shorted)
        ctx.sink.report({Severity::kWarning, "spice.self-loop",
                         "element '" + e.name() +
                             "' has both terminals on node '" +
                             ctx.c.node_name(terms[0].node) +
                             "' (stamps nothing)",
                         line, e.name(), ""});
    }
  }
}

// ---------------------------------------------------------------------
// SI pack (paper-specific: class-AB memory cells, CMFF — Figs. 1-2)
// ---------------------------------------------------------------------

/// A detected complementary class-AB memory pair: NMOS and PMOS sharing
/// a drain, each gate tied to the drain directly (diode) or through a
/// sampling switch (Fig. 1).
struct MemoryPair {
  const Mosfet* mn = nullptr;
  const Mosfet* mp = nullptr;
  NodeId drain = spice::kGroundNode;
  const spice::Switch* sn = nullptr;  ///< n-gate sampling switch
  const spice::Switch* sp = nullptr;  ///< p-gate sampling switch
};

/// The MOSFET of `type` whose `role` terminal ("d", "g", ...) is `a`.
const Mosfet* mosfet_at(const Ctx& ctx, const Attachment& a,
                        spice::MosType type, std::string_view role) {
  const auto* m = dynamic_cast<const Mosfet*>(&ctx.element(a.first));
  return m && m->type() == type && a.second.role == role ? m : nullptr;
}

/// The first switch, in element order, connecting `a` and `b`, if any.
const spice::Switch* switch_between(const Ctx& ctx, NodeId a, NodeId b) {
  const auto& at_a = ctx.attached[a];
  const auto& at_b = ctx.attached[b];
  for (const auto& [k, term] : at_a.size() <= at_b.size() ? at_a : at_b) {
    const auto* sw = dynamic_cast<const spice::Switch*>(&ctx.element(k));
    if (!sw) continue;
    const auto& t = ctx.terminals[k];
    if ((t[0].node == a && t[1].node == b) ||
        (t[0].node == b && t[1].node == a))
      return sw;
  }
  return nullptr;
}

/// Pairs in NMOS element order, then PMOS element order on its drain.
std::vector<MemoryPair> find_memory_pairs(const Ctx& ctx) {
  std::vector<MemoryPair> pairs;
  for (const auto& e : ctx.c.elements()) {
    const auto* n = dynamic_cast<const Mosfet*>(e.get());
    if (!n || n->type() != spice::MosType::kNmos) continue;
    for (const Attachment& d : ctx.attached[n->drain()]) {
      const Mosfet* p = mosfet_at(ctx, d, spice::MosType::kPmos, "d");
      if (!p) continue;
      MemoryPair mp;
      mp.mn = n;
      mp.mp = p;
      mp.drain = n->drain();
      const bool n_diode = n->gate() == mp.drain;
      const bool p_diode = p->gate() == mp.drain;
      if (!n_diode) mp.sn = switch_between(ctx, n->gate(), mp.drain);
      if (!p_diode) mp.sp = switch_between(ctx, p->gate(), mp.drain);
      const bool n_tied = n_diode || mp.sn != nullptr;
      const bool p_tied = p_diode || mp.sp != nullptr;
      if (n_tied && p_tied) pairs.push_back(mp);
    }
  }
  return pairs;
}

/// si.supply-min + si.classab-asymmetry over detected memory pairs.
void check_memory_pairs(Ctx& ctx, const std::vector<MemoryPair>& pairs) {
  for (const MemoryPair& mp : pairs) {
    if (mp.mn->source() != spice::kGroundNode) continue;
    const double vdd = ctx.supply[mp.mp->source()].value_or(0.0);
    if (vdd == 0.0) continue;  // supply rail not identifiable

    const double vt_n = std::abs(mp.mn->params().vt0);
    const double vt_p = std::abs(mp.mp->params().vt0);
    const double floor = vt_n + vt_p + ctx.opt.min_pair_overdrive;
    if (vdd < floor) {
      ctx.sink.report(
          {Severity::kError, "si.supply-min",
           "supply " + fmt(vdd) + " V is below the class-AB pair minimum " +
               fmt(floor) + " V for '" + mp.mn->name() + "'/'" +
               mp.mp->name() + "' (Vt_n + Vt_p + Vov = " + fmt(vt_n) +
               " + " + fmt(vt_p) + " + " + fmt(ctx.opt.min_pair_overdrive) +
               ", paper Eqs. (1)-(2))",
           ctx.line_of_element(mp.mp->name()), mp.mp->name(),
           "raise the supply above " + fmt(floor) +
               " V or use lower-Vt devices"});
    }

    const double beta_n = mp.mn->params().beta();
    const double beta_p = mp.mp->params().beta();
    const double rel = std::abs(beta_n - beta_p) / std::max(beta_n, beta_p);
    if (rel > ctx.opt.pair_beta_tolerance) {
      ctx.sink.report(
          {Severity::kWarning, "si.classab-asymmetry",
           "class-AB pair '" + mp.mn->name() + "'/'" + mp.mp->name() +
               "' has unbalanced beta (" + fmt(beta_n * 1e6) + " vs " +
               fmt(beta_p * 1e6) + " uA/V^2, " + fmt(rel * 100.0) +
               "% apart): the quiescent point shifts off mid-rail",
           ctx.line_of_element(mp.mn->name()), mp.mn->name(),
           "size W_p/W_n to compensate the KP_n/KP_p ratio"});
    }
  }
}

/// si.clock-overlap: cascaded memory cells (drains joined by a transfer
/// switch) must sample on non-overlapping phases.  ON intervals come
/// from waveform breakpoints and the overlap is computed symbolically
/// over the hyperperiod, so an overlap of any width — down to one
/// representable instant — is caught.
void check_clock_phases(Ctx& ctx, const std::vector<MemoryPair>& pairs) {
  const auto sampling_switch = [](const MemoryPair& mp) {
    const spice::Switch* sw = mp.sn ? mp.sn : mp.sp;
    return (sw && sw->control().period() > 0.0) ? sw : nullptr;
  };
  std::vector<std::vector<std::size_t>> pairs_at(ctx.c.node_count());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    pairs_at[pairs[i].drain].push_back(i);

  std::vector<std::size_t> cascaded;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const MemoryPair& a = pairs[i];
    const spice::Switch* sa = sampling_switch(a);
    if (!sa) continue;  // aperiodic (DC study) or diode cell
    // Later pairs on a drain that a switch joins to a's, ascending.
    cascaded.clear();
    for (const auto& [k, term] : ctx.attached[a.drain]) {
      if (!dynamic_cast<const spice::Switch*>(&ctx.element(k))) continue;
      const auto& t = ctx.terminals[k];
      const NodeId other = t[0].node == a.drain ? t[1].node : t[0].node;
      if (other == a.drain) continue;  // self-loop, not a transfer switch
      for (std::size_t j : pairs_at[other])
        if (j > i) cascaded.push_back(j);
    }
    std::sort(cascaded.begin(), cascaded.end());
    cascaded.erase(std::unique(cascaded.begin(), cascaded.end()),
                   cascaded.end());
    for (std::size_t j : cascaded) {
      const MemoryPair& b = pairs[j];
      const spice::Switch* sb = sampling_switch(b);
      if (!sb) continue;
      const verify::OverlapReport rep = verify::phase_overlap(
          verify::switch_phase(*sa), verify::switch_phase(*sb));
      if (rep.overlap <= 0.0) continue;
      ctx.sink.report(
          {Severity::kError, "si.clock-overlap",
           "cascaded memory cells at nodes '" + ctx.c.node_name(a.drain) +
               "' and '" + ctx.c.node_name(b.drain) +
               "' sample on overlapping clock phases (" +
               fmt(rep.overlap * 1e9) + " ns of double-ON per " +
               fmt(rep.hyperperiod * 1e9) +
               " ns hyperperiod, non-overlap margin " +
               fmt(rep.margin * 1e9) + " ns): the chain is transparent, "
               "not a z^-1 delay",
           ctx.line_of_element(sb->name()), sb->name(),
           "clock the second cell on the opposite phase"});
    }
  }
}

/// The deep static-verification pack: interval abstract interpretation
/// plus the witness-backed property checkers from src/verify/.
void check_deep(Ctx& ctx) {
  verify::VerifyOptions vo;
  vo.abs.supply_rel_tol = ctx.opt.deep_supply_tol;
  vo.abs.vt_abs_tol = ctx.opt.deep_vt_tol;
  vo.abs.beta_rel_tol = ctx.opt.deep_beta_tol;
  vo.abs.current_rel_tol = ctx.opt.deep_current_tol;
  vo.abs.rail_margin = ctx.opt.deep_rail_margin;
  vo.min_overdrive = ctx.opt.deep_min_overdrive;
  const verify::VerifyResult vr = verify::analyze(ctx.c, vo);
  verify::report(vr, ctx.sink);
}

/// si.cmff-half-size: the CMFF extraction devices must be half the size
/// of the diode masters so Icm = (Id+ + Id-)/2 (Fig. 2).
void check_cmff_sizing(Ctx& ctx) {
  const auto is_diode = [](const Mosfet* m) { return m->gate() == m->drain(); };

  for (const auto& e : ctx.c.elements()) {
    const auto* master = dynamic_cast<const Mosfet*>(e.get());
    if (!master || master->type() != spice::MosType::kNmos ||
        !is_diode(master))
      continue;
    // Extraction devices: NMOS gated by the master's drain.
    for (const Attachment& g : ctx.attached[master->drain()]) {
      const Mosfet* ext = mosfet_at(ctx, g, spice::MosType::kNmos, "g");
      if (!ext || ext == master || ext->drain() == master->drain() ||
          ext->source() != master->source())
        continue;
      // The extraction drain must land on a PMOS diode (the mirror
      // master returning -Icm), otherwise this is a plain mirror output.
      const auto& at_drain = ctx.attached[ext->drain()];
      const bool into_pmos_diode =
          std::any_of(at_drain.begin(), at_drain.end(), [&](const auto& d) {
            const Mosfet* p = mosfet_at(ctx, d, spice::MosType::kPmos, "d");
            return p && is_diode(p);
          });
      if (!into_pmos_diode) continue;
      const double master_ratio = master->params().w / master->params().l;
      const double ext_ratio = ext->params().w / ext->params().l;
      const double rel = ext_ratio / master_ratio - 0.5;
      if (std::abs(rel) > 0.5 * ctx.opt.half_size_tolerance) {
        ctx.sink.report(
            {Severity::kWarning, "si.cmff-half-size",
             "CMFF extraction device '" + ext->name() + "' is " +
                 fmt(ext_ratio / master_ratio) + "x the master '" +
                 master->name() +
                 "' (expected 0.5x): the extracted common mode is off by " +
                 fmt(rel / 0.5 * 100.0) + "%",
             ctx.line_of_element(ext->name()), ext->name(),
             "size the extraction pair at exactly half the master W/L"});
      }
    }
  }
}

}  // namespace

void check(const Circuit& c, DiagnosticSink& sink, const ErcOptions& opt,
           const spice::ParseIndex* index) {
  static obs::Timer& check_time = obs::timer("erc.check");
  obs::ScopedTimer timed(check_time);
  sink.set_min_severity(opt.min_severity);
  for (const auto& rule : opt.suppress) sink.suppress(rule);

  Ctx ctx(c, index, sink, opt);
  if (opt.spice_rules) {
    check_connectivity(ctx);
    check_node_usage(ctx);
    check_duplicate_names(ctx);
    check_elements(ctx);
  }
  if (opt.si_rules) {
    const std::vector<MemoryPair> pairs = find_memory_pairs(ctx);
    check_memory_pairs(ctx, pairs);
    check_clock_phases(ctx, pairs);
    check_cmff_sizing(ctx);
  }
  if (opt.deep) check_deep(ctx);
  sink.sort_by_line();
}

std::vector<Diagnostic> check(const Circuit& c, const ErcOptions& opt) {
  DiagnosticSink sink;
  check(c, sink, opt);
  return sink.diagnostics();
}

void enforce(const Circuit& c, const ErcOptions& opt) {
  DiagnosticSink sink;
  check(c, sink, opt);
  if (!sink.ok()) {
    throw ErcError("ERC failed with " + std::to_string(sink.errors()) +
                       " error(s):\n" + sink.text(),
                   sink.diagnostics());
  }
}

void check_supply(const cells::SupplyRequirement& req, double vdd,
                  DiagnosticSink& sink) {
  if (req.feasible_at(vdd)) return;
  sink.report({Severity::kError, "si.supply-min",
               "supply " + fmt(vdd) + " V is below the Eq. (1)-(2) minimum " +
                   fmt(req.minimum_volts) + " V (GGA branch needs " +
                   fmt(req.eq1_volts) + " V, memory pair needs " +
                   fmt(req.eq2_volts) + " V)",
               0, "",
               "raise the supply above " + fmt(req.minimum_volts) +
                   " V or reduce the modulation index"});
}

}  // namespace si::erc
