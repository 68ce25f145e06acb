// Compact MOSFET model: Sakurai-Newton alpha-power law with channel-length
// modulation and a simple exponential subthreshold term. This replaces the
// proprietary PTM SPICE decks the paper characterizes with; it reproduces the
// slew/load trends that matter for NLDM characterization.
//
// Unit system (shared with the whole spice module):
//   V in volts, R in kOhm, C in fF, t in ps, I in mA.
// These are consistent: V/kOhm = mA and fF*V/ps = mA.
#pragma once

#include <limits>

namespace m3d::spice {

/// Exact-argument memo of the transcendental sub-results of MosModel::ids,
/// one per device. Each entry holds a pure function of one model-internal
/// argument (vds, vgs or vgt) next to that argument; ids() takes an entry
/// only when its argument compares equal, so a reused value is exactly what
/// the call would have computed. Keys start as NaN, which equals nothing.
/// A memo belongs to the model that made it (MosModel::memo()).
struct IdsMemo {
  static constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
  double floor_ma_um = 0.0;  // ioff * exp(vth / S): the model's constant floor
  double vds = kNone, leak_sat = 0.0;           // 1 - exp(-vds / 0.026)
  double vgs = kNone, sub_ma_um = 0.0;          // ioff * exp(vgs / S)
  double vgt = kNone, idsat = 0.0, vdsat = 0.0;  // k * vgt^a, c * vgt^(a/2)
};

/// Small-signal conductances d ids / d(vd, vg, vs), per um of width.
struct MosConductance {
  double gd = 0.0, gg = 0.0, gs = 0.0;
};

struct MosModel {
  bool pmos = false;
  double vth_v = 0.47;       // threshold magnitude
  double alpha = 1.35;       // velocity-saturation index
  double k_ma_um = 0.26;     // drive: Idsat = k * W(um) * (Vgs-Vth)^alpha
  double vdsat_coef = 0.9;   // Vdsat = vdsat_coef * (Vgs-Vth)^(alpha/2)
  double lambda = 0.06;      // channel-length modulation (1/V)
  double cg_ff_um = 0.45;    // gate capacitance per um of width
  double cd_ff_um = 0.33;    // drain/source diffusion cap per um of width
  double ioff_ma_um = 2.4e-6;  // off-state leakage per um at Vgs=0,Vds=Vdd
  double subthreshold_swing_v = 0.1;  // exponential slope (per decade/ln10)

  /// Drain current for terminal voltages (drain, gate, source) measured
  /// against ground, with the device's own polarity handled internally.
  /// Positive current flows drain -> source for NMOS (source -> drain
  /// internally for PMOS, reported with sign so that current always leaves
  /// the drain node for NMOS pull-down and enters it for PMOS pull-up).
  ///
  /// `reuse` (optional) supplies sub-results whose arguments match this
  /// call's; `record` (optional, may alias `reuse`) receives the ones this
  /// call used. The result is bit-identical with or without either.
  double ids(double vd, double vg, double vs, const IdsMemo* reuse = nullptr,
             IdsMemo* record = nullptr) const;

  /// A fresh memo for this model: constant floor set, no entries.
  IdsMemo memo() const;

  /// Forward-difference conductances (step kFdStepV on each terminal) at a
  /// base point whose current `i0` was computed by ids(vd, vg, vs, &memo,
  /// &memo). The three offset points read `memo`, so the result equals the
  /// one of four plain ids() calls bit for bit.
  MosConductance fd_conductance(double vd, double vg, double vs, double i0,
                                const IdsMemo& memo) const;
  static constexpr double kFdStepV = 1e-5;
};

/// 45nm bulk NMOS/PMOS calibrated so that our characterized INV/NAND2/MUX2/DFF
/// land near the paper's Table 2 numbers (see tests/test_spice.cpp).
MosModel ptm45_nmos();
MosModel ptm45_pmos();

}  // namespace m3d::spice
