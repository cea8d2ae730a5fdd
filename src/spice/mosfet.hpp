// Level-1 (square-law) MOSFET with channel-length modulation, fixed gate
// capacitances, thermal and flicker noise.  This is the device model
// behind every transistor-level experiment: the class-AB memory cell
// (Fig. 1), the CMFF mirrors (Fig. 2), and the supply-voltage limits of
// Eqs. (1)-(2).
#pragma once

#include <algorithm>
#include <string>

#include "spice/element.hpp"
#include "spice/elements.hpp"

namespace si::spice {

enum class MosType { kNmos, kPmos };

/// Level-1 model parameters.  Defaults approximate a 0.8 um digital CMOS
/// process like the paper's (Vt ~ 0.8-1 V, KP tens of uA/V^2).
struct MosfetParams {
  double w = 10e-6;    ///< channel width [m]
  double l = 0.8e-6;   ///< channel length [m]
  double kp = 100e-6;  ///< transconductance parameter uCox [A/V^2]
  double vt0 = 0.8;    ///< threshold voltage magnitude [V]
  double lambda = 0.05;  ///< channel-length modulation [1/V]
  double gamma = 0.0;  ///< body-effect coefficient [V^0.5]; 0 disables
  double phi = 0.7;    ///< surface potential 2*phi_F [V]
  double cgs = 0.0;    ///< fixed gate-source capacitance [F]
  double cgd = 0.0;    ///< fixed gate-drain (overlap) capacitance [F]
  double noise_gamma = 2.0 / 3.0;  ///< thermal noise coefficient
  double kf = 0.0;     ///< flicker coefficient: Sid = kf * |Id| / f
  double temperature = kRoomTemperature;

  double beta() const { return kp * w / l; }
};

/// Operating region of the device at the last accepted solution.
enum class MosRegion { kCutoff, kTriode, kSaturation };

/// MOSFET with optional bulk terminal.  Without an explicit bulk the
/// device behaves source-tied (no body effect regardless of gamma);
/// with one, the threshold follows
///   Vt = Vt0 + gamma (sqrt(phi + Vsb) - sqrt(phi))
/// evaluated in the source-referenced primed frame.
class Mosfet final : public Element {
 public:
  Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
         NodeId source, MosfetParams params);

  /// Four-terminal variant with an explicit bulk node.
  Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
         NodeId source, NodeId bulk, MosfetParams params);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void accept(const SolutionView& sol, const StampContext& ctx) override;
  bool nonlinear() const override { return true; }
  void stamp_ac(ComplexStamper& s, double omega) const override;
  void append_noise(std::vector<NoiseSource>& out) const override;
  double dissipated_power(const SolutionView& sol) const override;

  MosType type() const { return type_; }
  const MosfetParams& params() const { return params_; }

  /// Replaces the model parameters in place (Monte-Carlo mismatch
  /// draws): values only — the device's nodes, and therefore the MNA
  /// sparsity pattern, are untouched, so no Circuit revision bump is
  /// needed.  Same validation as construction.
  void set_params(const MosfetParams& params);

  // Terminal nodes (for topology inspection).
  NodeId drain() const { return d_; }
  NodeId gate() const { return g_; }
  NodeId source() const { return s_; }
  bool has_bulk() const { return has_bulk_; }
  NodeId bulk() const { return b_; }

  // Operating point at the terminal voltages of the last accept(),
  // evaluated on demand with the current parameters; before the first
  // accept() every value reads zero (cutoff).
  double id() const { return drain_current(op()); }  ///< drain->source
  double gm() const { return op().gm; }
  double gds() const { return op().gds; }
  MosRegion region() const { return op().region; }
  double vgs() const { return op_vg_ - op_vs_; }
  double vds() const { return op_vd_ - op_vs_; }
  /// Saturation voltage |Vgs - Vt| at the operating point.
  double vdsat() const { return std::max(op().vov, 0.0); }

 private:
  struct Eval {
    double id = 0.0;   ///< primed-orientation current (>= 0)
    double gm = 0.0;
    double gds = 0.0;
    double vov = 0.0;
    MosRegion region = MosRegion::kCutoff;
    NodeId d_eff = kGroundNode;  ///< effective drain (actual node)
    NodeId s_eff = kGroundNode;  ///< effective source (actual node)
    double sign = 1.0;           ///< +1 NMOS, -1 PMOS
  };

  /// Evaluates the square-law equations at the given node voltages.
  Eval evaluate(double vd, double vg, double vs, double vb) const;
  /// evaluate() at the voltages of the last accept() (a zero Eval with
  /// the nominal orientation before the first one).
  Eval op() const;
  /// Current from the drain terminal to the source terminal.
  double drain_current(const Eval& e) const {
    return e.sign * e.id * ((e.d_eff == d_) ? 1.0 : -1.0);
  }

  /// Effective threshold in the primed frame for source-bulk voltage.
  double threshold(double vsb_primed) const;

  MosType type_;
  NodeId d_, g_, s_;
  NodeId b_ = kGroundNode;
  bool has_bulk_ = false;
  MosfetParams params_;
  double beta_;  ///< params_.beta(), kept in step by set_params()
  CompanionCap cgs_cap_;
  CompanionCap cgd_cap_;

  // Terminal voltages of the last accept() (bulk: the source voltage
  // when there is no bulk terminal).
  bool accepted_ = false;
  double op_vd_ = 0.0, op_vg_ = 0.0, op_vs_ = 0.0, op_vb_ = 0.0;
};

}  // namespace si::spice
