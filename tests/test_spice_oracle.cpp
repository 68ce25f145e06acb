// 0-ULP oracle for the SPICE Newton kernel. `spice::simulate` evaluates each
// MOSFET once per Newton iteration, lets the finite-difference points reuse
// the base point's exact transcendental results, hands a converged step's
// currents to the source bookkeeping and keeps flat accumulators; every
// TranResult field must still equal the pre-change copy in
// tests/spice_reference.hpp bit for bit. Circuits are the characterizer's:
// INV, NAND2, MUX2, FA and DFF in 2D and T-MI, a full FA arc grid at 1 and 4
// threads on a shared SimContext, the DFF with and without its measured
// edge, leakage runs, an iteration-capped run and a dense-fallback run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "exec/exec.hpp"
#include "liberty/characterize.hpp"
#include "spice/circuit.hpp"
#include "spice/mosfet.hpp"
#include "spice/sim.hpp"
#include "spice_reference.hpp"
#include "tech/tech.hpp"
#include "util/metrics.hpp"

namespace m3d {
namespace {

constexpr double kVdd = 1.1;

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Index of the first element whose bits differ, or -1.
long first_bit_mismatch(const std::vector<double>& a,
                        const std::vector<double>& b) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (!same_bits(a[k], b[k])) return static_cast<long>(k);
  }
  return -1;
}

void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const long k = first_bit_mismatch(got, want);
  EXPECT_EQ(k, -1) << what << "[" << k << "]: "
                   << (k >= 0 ? got[static_cast<size_t>(k)] : 0.0) << " vs "
                   << (k >= 0 ? want[static_cast<size_t>(k)] : 0.0);
}

template <class Map>
void expect_same_map(const Map& got, const Map& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [node, w] : want) {
    const auto it = got.find(node);
    ASSERT_NE(it, got.end()) << what << " node " << node;
    if constexpr (std::is_same_v<typename Map::mapped_type, double>) {
      EXPECT_TRUE(same_bits(it->second, w))
          << what << " node " << node << ": " << it->second << " vs " << w;
    } else {
      expect_bits(it->second, w, what + " node " + std::to_string(node));
    }
  }
}

void expect_same_result(const spice::TranResult& got,
                        const spice::TranResult& want, const std::string& tag) {
  expect_bits(got.time_ps, want.time_ps, tag + " time_ps");
  expect_same_map(got.wave, want.wave, tag + " wave");
  expect_same_map(got.source_energy_fj, want.source_energy_fj,
                  tag + " source_energy_fj");
  expect_same_map(got.source_avg_current_ma, want.source_avg_current_ma,
                  tag + " source_avg_current_ma");
  EXPECT_EQ(got.converged, want.converged) << tag;
  EXPECT_EQ(got.fail_reason, want.fail_reason) << tag;
}

/// Runs `ckt` through simulate() and through the reference, comparing whole
/// results. (Shared contexts are covered by the FA grid test.)
void check_oracle(const spice::Circuit& ckt, const spice::TranOptions& opt,
                  const std::string& tag) {
  expect_same_result(spice::simulate(ckt, opt), test::ref::simulate(ckt, opt),
                     tag);
}

/// A cell's characterization circuit in the characterizer's template shape:
/// load cap on the first output, a VDD supply and one source per input.
struct CellBench {
  spice::Circuit ckt;
  std::vector<size_t> src_idx;  // per input pin
  size_t load_idx = 0;
  int out = -1;
  std::vector<int> in_nodes;
};

CellBench make_bench(cells::Func func, tech::Style style) {
  const cells::CellSpec spec = cells::make_spec(func, 1);
  const tech::Tech tch(tech::Node::k45nm, style);
  const cells::CellLayout layout = style == tech::Style::k2D
                                       ? cells::layout_2d(spec, tch)
                                       : cells::fold_tmi(spec, tch);
  CellBench b;
  b.ckt = liberty::make_cell_circuit(spec, layout,
                                     cells::SiliconModel::kDielectric);
  b.out = b.ckt.find_node(spec.outputs().front());
  b.load_idx = b.ckt.capacitors().size();
  b.ckt.add_capacitor(b.out, 0, 3.2);
  b.ckt.add_source(b.ckt.find_node("VDD"), spice::Pwl::dc(kVdd));
  for (const std::string& pin : spec.inputs()) {
    b.src_idx.push_back(b.ckt.sources().size());
    b.in_nodes.push_back(b.ckt.find_node(pin));
    b.ckt.add_source(b.in_nodes.back(), spice::Pwl::dc(0.0));
  }
  return b;
}

/// Ramps the first input (side inputs held at `side_v`) with the
/// characterizer's window for this slew and load.
spice::TranOptions set_comb_point(CellBench& b, double slew_ps, double load_ff,
                                  bool rise, double side_v) {
  b.ckt.set_capacitor_ff(b.load_idx, load_ff);
  for (size_t i = 0; i < b.src_idx.size(); ++i) {
    b.ckt.set_source_wave(
        b.src_idx[i], i == 0 ? spice::Pwl::ramp(40.0, slew_ps, rise ? 0.0 : kVdd,
                                                rise ? kVdd : 0.0)
                             : spice::Pwl::dc(side_v));
  }
  spice::TranOptions opt;
  opt.t_stop_ps = 40.0 + 4.0 * slew_ps + 40.0 * (load_ff / 3.2) + 160.0;
  opt.dt_ps = std::max(0.02, std::min(slew_ps / 12.0, opt.t_stop_ps / 2500.0));
  opt.probes = {b.out, b.in_nodes[0]};
  return opt;
}

/// DFF CK->Q stimulus of the characterizer: a preamble loads the opposite
/// value, D switches, then (optionally) the measured CK edge.
spice::TranOptions set_dff_point(CellBench& b, bool q_rise, double slew_ps,
                                 double load_ff, bool with_final_edge) {
  b.ckt.set_capacitor_ff(b.load_idx, load_ff);
  const double d_old = q_rise ? 0.0 : kVdd;
  const double d_new = q_rise ? kVdd : 0.0;
  b.ckt.set_source_wave(b.src_idx[0], spice::Pwl{{{0.0, d_old},
                                                  {260.0, d_old},
                                                  {280.0, d_new}}});
  spice::Pwl ck;
  ck.points = {{0.0, 0.0}, {60.0, 0.0}, {70.0, kVdd}, {170.0, kVdd},
               {180.0, 0.0}};
  if (with_final_edge) {
    ck.points.push_back({360.0, 0.0});
    ck.points.push_back({360.0 + slew_ps, kVdd});
  }
  b.ckt.set_source_wave(b.src_idx[1], ck);
  spice::TranOptions opt;
  opt.t_stop_ps = 360.0 + 4.0 * slew_ps + 60.0 * (load_ff / 3.2) + 400.0;
  opt.dt_ps = std::max(0.05, std::min(slew_ps / 10.0, opt.t_stop_ps / 2200.0));
  opt.probes = {b.out, b.in_nodes[1]};
  return opt;
}

const char* style_name(tech::Style s) {
  return s == tech::Style::k2D ? "2D" : "T-MI";
}

TEST(SpiceOracle, CharacterizationCellsMatchReferenceBitwise) {
  struct Case {
    cells::Func func;
    const char* name;
    double side_v;  // side inputs that let the first input toggle the output
  };
  const Case cases[] = {{cells::Func::kInv, "INV", 0.0},
                        {cells::Func::kNand2, "NAND2", kVdd},
                        {cells::Func::kMux2, "MUX2", 0.0},
                        {cells::Func::kFa, "FA", 0.0}};
  for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
    for (const Case& c : cases) {
      CellBench b = make_bench(c.func, style);
      for (bool rise : {false, true}) {
        const spice::TranOptions opt =
            set_comb_point(b, 37.5, 3.2, rise, c.side_v);
        check_oracle(b.ckt, opt,
                     std::string(c.name) + " " + style_name(style) +
                         (rise ? " rise" : " fall"));
      }
    }
    CellBench dff = make_bench(cells::Func::kDff, style);
    for (bool q_rise : {false, true}) {
      for (bool edge : {true, false}) {
        const spice::TranOptions opt =
            set_dff_point(dff, q_rise, 28.1, 3.2, edge);
        check_oracle(dff.ckt, opt,
                     std::string("DFF ") + style_name(style) +
                         (q_rise ? " q_rise" : " q_fall") +
                         (edge ? " with edge" : " without edge"));
      }
    }
  }
}

/// All 9 (slew, load) points x both edges of one FA arc on one shared
/// context, fanned out over the pool like the characterizer's sweep.
TEST(SpiceOracle, FaArcGridMatchesAtOneAndFourThreads) {
  const CellBench tmpl = make_bench(cells::Func::kFa, tech::Style::kTMI);
  spice::SimContext ctx;
  ctx.prepare(tmpl.ckt);
  struct Point {
    spice::Circuit ckt;
    spice::TranOptions opt;
  };
  std::vector<Point> points;
  for (double slew : {7.5, 37.5, 150.0}) {
    for (double load : {0.8, 3.2, 12.8}) {
      for (bool rise : {false, true}) {
        CellBench b = tmpl;
        const spice::TranOptions opt = set_comb_point(b, slew, load, rise, 0.0);
        points.push_back({b.ckt, opt});
      }
    }
  }
  std::vector<spice::TranResult> want;
  for (const Point& p : points) want.push_back(test::ref::simulate(p.ckt, p.opt));
  for (int threads : {1, 4}) {
    exec::set_default_threads(threads);
    std::vector<spice::TranResult> got(points.size());
    exec::parallel_for(points.size(), [&](size_t b, size_t e) {
      for (size_t k = b; k < e; ++k) {
        got[k] = spice::simulate(points[k].ckt, points[k].opt, &ctx);
      }
    });
    for (size_t k = 0; k < points.size(); ++k) {
      expect_same_result(got[k], want[k],
                         "FA point " + std::to_string(k) + " @" +
                             std::to_string(threads) + "t");
    }
  }
  exec::set_default_threads(0);
}

TEST(SpiceOracle, LeakageRunsWithTailWindowMatch) {
  // The characterizer's leakage runs: a combinational cell at DC, and the
  // DFF with a settling CK pulse averaged over the last 100 ps only.
  CellBench nand = make_bench(cells::Func::kNand2, tech::Style::k2D);
  nand.ckt.set_source_wave(nand.src_idx[0], spice::Pwl::dc(kVdd));
  spice::TranOptions comb;
  comb.t_stop_ps = 100.0;
  comb.dt_ps = 5.0;
  check_oracle(nand.ckt, comb, "NAND2 leakage");

  CellBench dff = make_bench(cells::Func::kDff, tech::Style::kTMI);
  dff.ckt.set_source_wave(dff.src_idx[0], spice::Pwl::dc(kVdd));
  spice::Pwl ck;
  ck.points = {{0.0, 0.0}, {50.0, 0.0}, {60.0, kVdd}, {150.0, kVdd},
               {160.0, 0.0}};
  dff.ckt.set_source_wave(dff.src_idx[1], ck);
  spice::TranOptions seq;
  seq.t_stop_ps = 500.0;
  seq.dt_ps = 1.0;
  seq.tail_ps = 100.0;
  check_oracle(dff.ckt, seq, "DFF leakage tail");
}

TEST(SpiceOracle, DuplicateProbesAndSourcesShareOneEntry) {
  // A node probed twice records two samples per step in one waveform, and
  // two sources on one node accumulate into one energy entry, as the
  // per-node maps did.
  spice::Circuit c;
  const int in = c.node("in");
  const int out = c.node("out");
  c.add_resistor(in, out, 2.0);
  c.add_capacitor(out, 0, 5.0);
  c.add_source(in, spice::Pwl::ramp(5.0, 10.0, 0.0, kVdd));
  c.add_source(in, spice::Pwl::ramp(5.0, 10.0, 0.0, kVdd));
  spice::TranOptions opt;
  opt.t_stop_ps = 60.0;
  opt.dt_ps = 0.5;
  opt.probes = {out, in, out};
  check_oracle(c, opt, "duplicate probes and sources");
  EXPECT_EQ(spice::simulate(c, opt).wave.at(out).size(), size_t{2 * (120 + 1)});
}

TEST(SpiceOracle, IterationCappedRunMatches) {
  // One Newton iteration per step: most steps end on the cap, not on the
  // residual test, so their source currents must be recomputed.
  CellBench b = make_bench(cells::Func::kNand2, tech::Style::k2D);
  spice::TranOptions opt = set_comb_point(b, 7.5, 0.8, true, kVdd);
  opt.max_newton_iters = 1;
  const spice::TranResult want = test::ref::simulate(b.ckt, opt);
  EXPECT_FALSE(want.converged);
  check_oracle(b.ckt, opt, "NAND2 max_newton_iters=1");
}

TEST(SpiceOracle, DensePivotFallbackRunMatches) {
  // Two cross-coupled devices without device capacitance, each deep in
  // subthreshold with vds > 1 V: the drain conductance is exactly 0 while
  // the transconductance is large, so the fixed-order sparse pivot on the
  // first unknown falls under the relative threshold and the step retries
  // with dense partial pivoting.
  spice::MosModel m = spice::ptm45_nmos();
  m.vth_v = 2.0;
  m.cg_ff_um = 0.0;
  m.cd_ff_um = 0.0;
  spice::Circuit ckt;
  const int x = ckt.node("x");
  const int y = ckt.node("y");
  const int vneg = ckt.node("vneg");
  ckt.add_source(vneg, spice::Pwl::dc(-kVdd));
  ckt.add_mosfet(x, y, vneg, 1000.0, m);
  ckt.add_mosfet(y, x, vneg, 1000.0, m);
  spice::TranOptions opt;
  opt.t_stop_ps = 20.0;
  opt.dt_ps = 1.0;
  opt.probes = {x, y};
  util::MetricsRegistry reg;
  {
    util::ScopedMetricsSink sink(reg);
    check_oracle(ckt, opt, "dense fallback");
  }
  EXPECT_GT(reg.counters()["spice.sparse_pivot_fallbacks"], 0.0);
}

TEST(SpiceOracle, WorkCountersCountStepsSolvesAndEvaluations) {
  CellBench b = make_bench(cells::Func::kInv, tech::Style::k2D);
  const spice::TranOptions opt = set_comb_point(b, 37.5, 3.2, true, 0.0);
  util::MetricsRegistry reg;
  {
    util::ScopedMetricsSink sink(reg);
    (void)spice::simulate(b.ckt, opt);
  }
  auto c = reg.counters();
  const double n_mos = static_cast<double>(b.ckt.mosfets().size());
  EXPECT_EQ(c["spice.steps"], std::ceil(opt.t_stop_ps / opt.dt_ps));
  EXPECT_GT(c["spice.newton_iters"], 0.0);
  // Every Newton solve follows one residual (n_mos evaluations) and adds
  // three finite-difference points per device.
  EXPECT_GE(c["spice.device_evals"], 4.0 * n_mos * c["spice.newton_iters"]);
}

/// Memoized finite-difference conductances against four plain evaluations
/// of the reference equation, over a grid that crosses vds < 0 swaps, the
/// threshold, the linear/saturation boundary and signed zeros, for NMOS and
/// PMOS. One memo per model lives across the whole grid, as in the solver.
TEST(SpiceOracle, MemoizedConductancesEqualPlainEvaluations) {
  std::vector<double> volts = {-0.0, 0.0, -0.3, 0.05, 0.2, 0.45, 0.47,
                               0.47 - 1e-5, 0.47 + 1e-5, 0.63, 0.65 - 1e-5,
                               0.8, 1.1, 1.1 - 1e-5, 1.3};
  for (int k = 0; k <= 22; ++k) volts.push_back(0.05 * k);
  constexpr double kEps = spice::MosModel::kFdStepV;
  long checked = 0;
  for (const spice::MosModel& model : {spice::ptm45_nmos(), spice::ptm45_pmos()}) {
    spice::IdsMemo memo = model.memo();
    for (double vd : volts) {
      for (double vg : volts) {
        for (double vs : volts) {
          const double i0 = model.ids(vd, vg, vs, &memo, &memo);
          const double want_i0 = test::ref::ids(model, vd, vg, vs);
          ASSERT_TRUE(same_bits(i0, want_i0))
              << "ids(" << vd << ", " << vg << ", " << vs << ") pmos=" << model.pmos;
          const spice::MosConductance g =
              model.fd_conductance(vd, vg, vs, i0, memo);
          const double gd = (test::ref::ids(model, vd + kEps, vg, vs) - want_i0) / kEps;
          const double gg = (test::ref::ids(model, vd, vg + kEps, vs) - want_i0) / kEps;
          const double gs = (test::ref::ids(model, vd, vg, vs + kEps) - want_i0) / kEps;
          ASSERT_TRUE(same_bits(g.gd, gd) && same_bits(g.gg, gg) &&
                      same_bits(g.gs, gs))
              << "at (" << vd << ", " << vg << ", " << vs
              << ") pmos=" << model.pmos << ": " << g.gd << "/" << g.gg << "/"
              << g.gs << " vs " << gd << "/" << gg << "/" << gs;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2L * 38 * 38 * 38);
}

}  // namespace
}  // namespace m3d
