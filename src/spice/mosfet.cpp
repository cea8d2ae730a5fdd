#include "spice/mosfet.hpp"

#include <cmath>
#include <stdexcept>

namespace si::spice {

Mosfet::Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
               NodeId source, MosfetParams params)
    : Element(std::move(name)),
      type_(type),
      d_(drain),
      g_(gate),
      s_(source),
      params_(params),
      beta_(params.beta()),
      cgs_cap_(params.cgs),
      cgd_cap_(params.cgd) {
  if (params.w <= 0 || params.l <= 0 || params.kp <= 0)
    throw std::invalid_argument("Mosfet: w, l, kp must be > 0");
}

Mosfet::Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
               NodeId source, NodeId bulk, MosfetParams params)
    : Mosfet(std::move(name), type, drain, gate, source, params) {
  b_ = bulk;
  has_bulk_ = true;
}

void Mosfet::set_params(const MosfetParams& params) {
  if (params.w <= 0 || params.l <= 0 || params.kp <= 0)
    throw std::invalid_argument("Mosfet: w, l, kp must be > 0");
  params_ = params;
  beta_ = params.beta();
  cgs_cap_.set_capacitance(params.cgs);
  cgd_cap_.set_capacitance(params.cgd);
}

double Mosfet::threshold(double vsb_primed) const {
  if (!has_bulk_ || params_.gamma == 0.0) return params_.vt0;
  // Clamp the junction to weak forward bias; deeper forward bias would
  // need a diode model.
  const double arg = std::max(params_.phi + vsb_primed, 0.0);
  return params_.vt0 +
         params_.gamma * (std::sqrt(arg) - std::sqrt(params_.phi));
}

Mosfet::Eval Mosfet::evaluate(double vd, double vg, double vs,
                              double vb) const {
  Eval e;
  e.sign = (type_ == MosType::kNmos) ? 1.0 : -1.0;
  // Work in the primed frame where the device behaves as an NMOS.
  double vdp = e.sign * vd;
  double vgp = e.sign * vg;
  double vsp = e.sign * vs;
  // The MOSFET is symmetric: the higher-potential terminal acts as the
  // drain (in the primed frame).
  if (vdp >= vsp) {
    e.d_eff = d_;
    e.s_eff = s_;
  } else {
    std::swap(vdp, vsp);
    e.d_eff = s_;
    e.s_eff = d_;
  }
  const double vgsp = vgp - vsp;
  const double vdsp = vdp - vsp;
  const double vbp = e.sign * vb;
  const double vt = threshold(vsp - vbp);
  const double vov = vgsp - vt;
  e.vov = vov;

  if (vov <= 0.0) {
    e.region = MosRegion::kCutoff;
    return e;
  }
  if (vdsp < vov) {
    // Triode.  Include the (1 + lambda*vds) factor so current and its
    // derivatives are continuous at vds = vov.
    const double clm = 1.0 + params_.lambda * vdsp;
    const double core = vov * vdsp - 0.5 * vdsp * vdsp;
    e.region = MosRegion::kTriode;
    e.id = beta_ * core * clm;
    e.gm = beta_ * vdsp * clm;
    e.gds = beta_ * ((vov - vdsp) * clm + core * params_.lambda);
  } else {
    const double clm = 1.0 + params_.lambda * vdsp;
    e.region = MosRegion::kSaturation;
    e.id = 0.5 * beta_ * vov * vov * clm;
    e.gm = beta_ * vov * clm;
    e.gds = 0.5 * beta_ * vov * vov * params_.lambda;
  }
  return e;
}

std::vector<Terminal> Mosfet::terminals() const {
  std::vector<Terminal> t = {
      {d_, "d", false}, {g_, "g", true}, {s_, "s", false}};
  if (has_bulk_) t.push_back({b_, "b", true});
  return t;
}

void Mosfet::stamp(RealStamper& s, const StampContext& ctx) {
  const Eval e = evaluate(s.voltage(d_), s.voltage(g_), s.voltage(s_),
                          has_bulk_ ? s.voltage(b_) : s.voltage(s_));
  // Actual current from d_eff to s_eff and actual controlling voltages.
  const double vgs_eff = s.voltage(g_) - s.voltage(e.s_eff);
  const double vds_eff = s.voltage(e.d_eff) - s.voltage(e.s_eff);
  const double i0 = e.sign * e.id;
  // Newton companion: i ~ i0 + gm*(vgs - vgs0) + gds*(vds - vds0).
  const double ieq = i0 - e.gm * vgs_eff - e.gds * vds_eff;
  s.conductance(e.d_eff, e.s_eff, e.gds + ctx.gmin);
  s.transconductance(e.d_eff, e.s_eff, g_, e.s_eff, e.gm);
  s.current(e.d_eff, e.s_eff, ieq);
  // Gate capacitances.
  cgs_cap_.stamp(s, ctx, g_, s_);
  cgd_cap_.stamp(s, ctx, g_, d_);
}

void Mosfet::accept(const SolutionView& sol, const StampContext& ctx) {
  accepted_ = true;
  op_vd_ = sol.voltage(d_);
  op_vg_ = sol.voltage(g_);
  op_vs_ = sol.voltage(s_);
  op_vb_ = has_bulk_ ? sol.voltage(b_) : op_vs_;
  cgs_cap_.accept(sol, ctx, g_, s_);
  cgd_cap_.accept(sol, ctx, g_, d_);
}

Mosfet::Eval Mosfet::op() const {
  if (accepted_) return evaluate(op_vd_, op_vg_, op_vs_, op_vb_);
  Eval e;
  e.d_eff = d_;
  e.s_eff = s_;
  return e;
}

void Mosfet::stamp_ac(ComplexStamper& s, double omega) const {
  const Eval e = op();
  s.admittance(e.d_eff, e.s_eff, e.gds);
  s.transadmittance(e.d_eff, e.s_eff, g_, e.s_eff, e.gm);
  cgs_cap_.stamp_ac(s, omega, g_, s_);
  cgd_cap_.stamp_ac(s, omega, g_, d_);
}

void Mosfet::append_noise(std::vector<NoiseSource>& out) const {
  const Eval e = op();
  const double thermal =
      4.0 * kBoltzmann * params_.temperature * params_.noise_gamma * e.gm;
  const double kf_id = params_.kf * std::abs(drain_current(e));
  out.push_back(NoiseSource{
      e.d_eff, e.s_eff,
      [thermal, kf_id](double f) {
        return thermal + (f > 0.0 ? kf_id / f : 0.0);
      },
      name() + ".channel"});
}

double Mosfet::dissipated_power(const SolutionView& sol) const {
  const double vds = sol.voltage(d_) - sol.voltage(s_);
  return std::abs(id() * vds);
}

}  // namespace si::spice
