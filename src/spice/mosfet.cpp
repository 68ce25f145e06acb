#include "spice/mosfet.hpp"

#include <algorithm>
#include <cmath>

namespace m3d::spice {

double MosModel::ids(double vd, double vg, double vs, const IdsMemo* reuse,
                     IdsMemo* record) const {
  // Map to device polarity: for PMOS, mirror all voltages.
  double vds = vd - vs;
  double vgs = vg - vs;
  double sign = 1.0;
  if (pmos) {
    vds = -vds;
    vgs = -vgs;
  }
  // The model is symmetric in source/drain: if vds < 0, swap terminals.
  if (vds < 0) {
    vgs = vgs - vds;  // gate-to-(new)source
    vds = -vds;
    sign = -sign;
  }
  const double vgt = vgs - vth_v;
  // Smooth saturation of the leakage term in vds (thermal voltage 26mV).
  const double leak_sat = reuse != nullptr && vds == reuse->vds
                              ? reuse->leak_sat
                              : 1.0 - std::exp(-vds / 0.026);
  if (record != nullptr) {
    record->vds = vds;
    record->leak_sat = leak_sat;
  }
  double id;
  if (vgt <= 0) {
    // Subthreshold slope anchored so that ioff is the current at vgs = 0.
    const double sub = reuse != nullptr && vgs == reuse->vgs
                           ? reuse->sub_ma_um
                           : ioff_ma_um * std::exp(vgs / subthreshold_swing_v);
    if (record != nullptr) {
      record->vgs = vgs;
      record->sub_ma_um = sub;
    }
    id = sub * leak_sat;
  } else {
    double idsat, vdsat;
    if (reuse != nullptr && vgt == reuse->vgt) {
      idsat = reuse->idsat;
      vdsat = reuse->vdsat;
    } else {
      idsat = k_ma_um * std::pow(vgt, alpha);
      vdsat = vdsat_coef * std::pow(vgt, alpha / 2.0);
    }
    if (record != nullptr) {
      record->vgt = vgt;
      record->idsat = idsat;
      record->vdsat = vdsat;
    }
    if (vds >= vdsat) {
      id = idsat * (1.0 + lambda * (vds - vdsat));
    } else {
      const double x = vds / vdsat;
      id = idsat * x * (2.0 - x);
    }
    // Floor at the subthreshold value at vgt = 0 for continuity.
    const double floor = reuse != nullptr
                             ? reuse->floor_ma_um
                             : ioff_ma_um * std::exp(vth_v / subthreshold_swing_v);
    id = std::max(id, floor * leak_sat);
  }
  if (pmos) sign = -sign;
  return sign * id;
}

IdsMemo MosModel::memo() const {
  IdsMemo m;
  m.floor_ma_um = ioff_ma_um * std::exp(vth_v / subthreshold_swing_v);
  return m;
}

MosConductance MosModel::fd_conductance(double vd, double vg, double vs,
                                        double i0, const IdsMemo& memo) const {
  MosConductance g;
  g.gd = (ids(vd + kFdStepV, vg, vs, &memo) - i0) / kFdStepV;
  g.gg = (ids(vd, vg + kFdStepV, vs, &memo) - i0) / kFdStepV;
  g.gs = (ids(vd, vg, vs + kFdStepV, &memo) - i0) / kFdStepV;
  return g;
}

MosModel ptm45_nmos() {
  MosModel m;
  m.pmos = false;
  m.vth_v = 0.47;
  m.alpha = 1.35;
  // Effective drive fitted so a characterized INV_X1 lands at the Nangate
  // scale of paper Table 2 (~17 ps at slew 7.5 ps / load 0.8 fF). This is an
  // *effective* constant for the whole switching trajectory, lower than the
  // ITRS peak-Idsat figure.
  m.k_ma_um = 0.26;
  m.vdsat_coef = 0.9;
  m.lambda = 0.06;
  m.cg_ff_um = 0.45;
  m.cd_ff_um = 0.33;
  m.ioff_ma_um = 5.5e-6;  // ~2.5 nW INV leakage at 1.1 V (paper Table 11)
  return m;
}

MosModel ptm45_pmos() {
  MosModel m = ptm45_nmos();
  m.pmos = true;
  m.vth_v = 0.45;
  // Hole mobility skew: roughly 0.5x the NMOS drive per um. Cell layouts
  // compensate with wider PMOS (as Nangate does).
  m.k_ma_um = 0.135;
  return m;
}

}  // namespace m3d::spice
