// deck_verify: the sign-off flow.  spice::parse_netlist -> erc::check ->
// verify::analyze over every examples/decks/*.sp deck, plus
// verify::analyze on modulator cores built at 4, 8 and 10 sections.  No
// numeric solve runs; the verifier's per-section growth dominates.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "erc/check.hpp"
#include "si/netlists.hpp"
#include "spice/parser.hpp"
#include "verify/verify.hpp"

namespace pb {
namespace {

namespace nets = si::cells::netlists;

const char* const kVerifyCounts[] = {"verify.corners_evaluated",
                                     "verify.fixpoint_iterations",
                                     "verify.widenings", "verify.findings"};

class Decks : public Workload {
 public:
  explicit Decks(const WorkloadConfig& cfg) : cfg_(cfg) {}

  void setup() override {
    const std::filesystem::path dir =
        std::filesystem::path(cfg_.repo_root) / "examples" / "decks";
    std::vector<std::filesystem::path> paths;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.path().extension() == ".sp") paths.push_back(e.path());
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) throw std::runtime_error("no decks in " + dir.string());
    for (const auto& p : paths) {
      std::ifstream in(p);
      std::ostringstream text;
      text << in.rdbuf();
      decks_.push_back({p.stem().string(), strip_directives(text.str())});
    }
    for (int sections : cfg_.smoke ? std::vector<int>{1, 2}
                                   : std::vector<int>{4, 8, 10}) {
      ScopedSpan s("si.build");
      auto c = std::make_unique<si::spice::Circuit>();
      c->add<si::spice::VoltageSource>("Vdd", c->node("vdd"), c->ground(),
                                       3.3);
      nets::ModulatorCoreOptions opt;
      const auto h = nets::build_modulator_core(*c, sections, opt, "mod_");
      c->add<si::spice::CurrentSource>("Iinp", c->ground(), h.in_p, 1e-6);
      c->add<si::spice::CurrentSource>("Iinm", c->ground(), h.in_m, -1e-6);
      cores_.push_back({sections, std::move(c)});
    }
  }

  PassOut run_pass(bool traced) override {
    PassOut out;
    ScopedSpan pass("verify.pass");
    for (const auto& [name, text] : decks_) {
      ++out.ops;
      try {
        si::spice::ParseIndex index;
        std::unique_ptr<si::spice::Circuit> c;
        {
          ScopedSpan s("spice.parse");
          c = std::make_unique<si::spice::Circuit>(
              si::spice::parse_netlist(text, &index));
        }
        si::erc::DiagnosticSink sink;
        {
          ScopedSpan s("erc.check");
          si::erc::check(*c, sink, {}, &index);
        }
        out.outputs.set("deck." + name + ".erc_errors",
                        static_cast<double>(sink.errors()));
        record(out, "deck." + name, *c);
      } catch (const std::exception& e) {
        out.fail(name + ": " + e.what());
      }
    }
    for (const auto& [sections, c] : cores_) {
      ++out.ops;
      const std::string key = "core.sec" + std::to_string(sections);
      try {
        record(out, key, *c);
      } catch (const std::exception& e) {
        out.fail(key + ": " + e.what());
      }
    }
    out.pass_s = pass.close();
    out.items = static_cast<double>(decks_.size() + cores_.size());
    out.items_s = out.pass_s;
    if (traced) {
      out.layers.set("verify.analyze_s", analyze_total_s_);
      for (const auto& [key, s] : per_core_s_)
        out.layers.set("verify.analyze_s." + key, s);
      for (const char* n : kVerifyCounts) out.layers.set(n, obs_counter(n));
    }
    return out;
  }

 private:
  // Runs the verifier on one circuit and files its findings (and, for a
  // supply-floor finding, the witness supply) as checked outputs.
  void record(PassOut& out, const std::string& key,
              const si::spice::Circuit& c) {
    ScopedSpan s("verify.analyze");
    const si::verify::VerifyResult r = si::verify::analyze(c);
    const double dt = s.close();
    out.job_ms.push_back(dt * 1e3);
    analyze_total_s_ += dt;
    if (key.rfind("core.", 0) == 0) per_core_s_.emplace_back(key.substr(5), dt);
    out.outputs.set(key + ".findings", static_cast<double>(r.findings.size()));
    out.outputs.set(key + ".corners",
                    static_cast<double>(r.stats.corners_evaluated));
    for (const auto& f : r.findings) {
      if (f.rule != "si.supply-floor-worstcase") continue;
      for (const auto& w : f.witness)
        if (w.name == "vdd") out.outputs.set(key + ".witness_vdd", w.value);
    }
  }

  WorkloadConfig cfg_;
  std::vector<std::pair<std::string, std::string>> decks_;
  std::vector<std::pair<int, std::unique_ptr<si::spice::Circuit>>> cores_;
  double analyze_total_s_ = 0.0;
  std::vector<std::pair<std::string, double>> per_core_s_;
};

}  // namespace

std::string strip_directives(const std::string& deck) {
  std::ostringstream out;
  std::istringstream in(deck);
  std::string raw;
  while (std::getline(in, raw)) {
    const auto b = raw.find_first_not_of(" \t\r");
    std::string low = b == std::string::npos ? "" : raw.substr(b);
    std::transform(low.begin(), low.end(), low.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    bool directive = false;
    for (const char* d : {".tran", ".ac", ".noise", ".probe", ".op"})
      directive = directive || low.rfind(d, 0) == 0;
    out << (directive ? "*" : raw) << "\n";
  }
  return out.str();
}

std::unique_ptr<Workload> make_decks(const WorkloadConfig& cfg) {
  return std::make_unique<Decks>(cfg);
}

}  // namespace pb
