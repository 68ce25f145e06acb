#include "liberty/characterize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "exec/exec.hpp"
#include "liberty/io.hpp"
#include "spice/mosfet.hpp"
#include "spice/sim.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"

namespace m3d::liberty {
namespace {

constexpr double kVdd45 = 1.1;

/// Per-terminal series resistance: half the net's lumped R (a simple
/// distributed-RC approximation).
constexpr double kMinSeriesR = 0.002;  // kOhm; below this, connect directly

struct CellCkt {
  spice::Circuit ckt;
  int vdd_node = -1;
  std::map<std::string, int> net_node;  // net name -> center node
};

CellCkt build(const cells::CellSpec& spec, const cells::CellLayout& layout,
              cells::SiliconModel silicon) {
  CellCkt cc;
  auto& ckt = cc.ckt;
  // Net center nodes. VSS maps to ground.
  for (const auto& net : spec.nets()) {
    cc.net_node[net] = (net == "VSS") ? 0 : ckt.node(net);
  }
  cc.vdd_node = cc.net_node.at("VDD");
  // Net ground capacitance at the center node.
  for (const auto& [net, par] : layout.nets) {
    const auto it = cc.net_node.find(net);
    if (it == cc.net_node.end() || it->second == 0) continue;
    ckt.add_capacitor(it->second, 0, par.c_ff(silicon));
  }
  // Transistors; terminals reach their net through half the net R.
  int term_id = 0;
  auto terminal = [&](const std::string& net) {
    const int center = cc.net_node.at(net);
    if (net == "VDD" || net == "VSS") return center;  // stiff rails
    const auto pit = layout.nets.find(net);
    const double r = pit != layout.nets.end() ? pit->second.r_kohm : 0.0;
    if (r / 2.0 < kMinSeriesR) return center;
    const int t = ckt.node(util::strf("%s#t%d", net.c_str(), term_id++));
    ckt.add_resistor(center, t, r / 2.0);
    return t;
  };
  for (const auto& t : spec.transistors) {
    const spice::MosModel model =
        t.pmos ? spice::ptm45_pmos() : spice::ptm45_nmos();
    ckt.add_mosfet(terminal(t.drain), terminal(t.gate), terminal(t.source),
                   t.w_um, model);
  }
  return cc;
}

/// Reusable per-arc sweep state: one template circuit (built once, cloned
/// per grid point with value-only rewrites) plus the shared spice::SimContext
/// holding the node mapping, MNA pattern, and symbolic LU factorization that
/// every point of the (slew, load) grid reuses. Movable, not copyable; the
/// context is read-only after prepare() and safe to share across exec-pool
/// workers.
struct SweepTemplate {
  CellCkt cc;
  size_t load_idx = 0;          // load capacitor slot, value set per point
  std::vector<size_t> src_idx;  // stimulus source slot per pin (build order)
  spice::SimContext ctx;
};

/// Template for combinational arcs into `output`: load cap on the output,
/// a DC supply, and one placeholder source per input (src_idx follows
/// spec.inputs() order).
SweepTemplate make_comb_template(const cells::CellSpec& spec,
                                 const cells::CellLayout& layout,
                                 cells::SiliconModel silicon, double vdd,
                                 const std::string& output) {
  SweepTemplate st;
  st.cc = build(spec, layout, silicon);
  auto& ckt = st.cc.ckt;
  st.load_idx = ckt.capacitors().size();
  ckt.add_capacitor(st.cc.net_node.at(output), 0, 1.0);
  ckt.add_source(st.cc.vdd_node, spice::Pwl::dc(vdd));
  for (const auto& pin : spec.inputs()) {
    st.src_idx.push_back(ckt.sources().size());
    ckt.add_source(st.cc.net_node.at(pin), spice::Pwl::dc(0.0));
  }
  st.ctx.prepare(ckt);
  return st;
}

/// Template for DFF measurements: load cap on Q, supply, and placeholder
/// D / CK sources (src_idx = {D, CK}).
SweepTemplate make_dff_template(const cells::CellSpec& spec,
                                const cells::CellLayout& layout,
                                cells::SiliconModel silicon, double vdd) {
  SweepTemplate st;
  st.cc = build(spec, layout, silicon);
  auto& ckt = st.cc.ckt;
  st.load_idx = ckt.capacitors().size();
  ckt.add_capacitor(st.cc.net_node.at("Q"), 0, 1.0);
  ckt.add_source(st.cc.vdd_node, spice::Pwl::dc(vdd));
  st.src_idx.push_back(ckt.sources().size());
  ckt.add_source(st.cc.net_node.at("D"), spice::Pwl::dc(0.0));
  st.src_idx.push_back(ckt.sources().size());
  ckt.add_source(st.cc.net_node.at("CK"), spice::Pwl::dc(0.0));
  st.ctx.prepare(ckt);
  return st;
}

/// Finds a side-input minterm such that toggling `input_idx` toggles output
/// `out_idx`. Returns the minterm with the toggling input at 0, or -1.
int find_sensitization(cells::Func func, int input_idx, int out_idx) {
  const int n = cells::num_inputs(func);
  for (uint32_t m = 0; m < (1u << n); ++m) {
    if ((m >> input_idx) & 1u) continue;  // want input at 0 in the base
    const uint32_t m1 = m | (1u << input_idx);
    if (cells::eval(func, out_idx, m) != cells::eval(func, out_idx, m1)) {
      return static_cast<int>(m);
    }
  }
  return -1;
}

struct Measurement {
  double delay_ps = 0.0;
  double slew_ps = 0.0;
  double energy_fj = 0.0;
  bool valid = false;
};

/// Transient windows per grid point: long enough for the slowest edge to
/// settle, dt resolving the input slew. Factored out so the sweep's SoA
/// setup pass can precompute them for the whole grid.
double comb_t_stop(double slew_ps, double load_ff) {
  return 40.0 + 4.0 * slew_ps + 40.0 * (load_ff / 3.2) + 160.0;
}
double comb_dt(double slew_ps, double t_stop_ps) {
  return std::max(0.02, std::min(slew_ps / 12.0, t_stop_ps / 2500.0));
}
double dff_t_stop(double slew_ps, double load_ff) {
  return 360.0 + 4.0 * slew_ps + 60.0 * (load_ff / 3.2) + 400.0;  // t_edge 360
}
double dff_dt(double slew_ps, double t_stop_ps) {
  return std::max(0.05, std::min(slew_ps / 10.0, t_stop_ps / 2200.0));
}

/// One combinational characterization point: ramp `input` (rising if
/// in_rise), other inputs per `base_minterm`, measure at `output`. Clones
/// the template circuit (value-only rewrites) and simulates against its
/// shared context; t_stop/dt are precomputed by the sweep's SoA setup pass.
Measurement run_comb_point(const cells::CellSpec& spec,
                           const SweepTemplate& st, double vdd,
                           const std::string& input, bool in_rise,
                           uint32_t base_minterm, const std::string& output,
                           double slew_ps, double load_ff, double t_stop_ps,
                           double dt_ps) {
  spice::Circuit ckt = st.cc.ckt;
  const int out_node = st.cc.net_node.at(output);
  ckt.set_capacitor_ff(st.load_idx, load_ff);

  const auto& inputs = spec.inputs();
  const double t0 = 40.0;
  int in_node = -1;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int node = st.cc.net_node.at(inputs[i]);
    if (inputs[i] == input) {
      in_node = node;
      ckt.set_source_wave(st.src_idx[i],
                          in_rise ? spice::Pwl::ramp(t0, slew_ps, 0.0, vdd)
                                  : spice::Pwl::ramp(t0, slew_ps, vdd, 0.0));
    } else {
      const bool high = (base_minterm >> i) & 1u;
      ckt.set_source_wave(st.src_idx[i], spice::Pwl::dc(high ? vdd : 0.0));
    }
  }
  assert(in_node >= 0);

  spice::TranOptions topt;
  topt.t_stop_ps = t_stop_ps;
  topt.dt_ps = dt_ps;
  topt.probes = {out_node, in_node};
  const spice::TranResult r = spice::simulate(ckt, topt, &st.ctx);

  Measurement m;
  if (!r.converged) return m;
  const auto& vout = r.waveform(out_node);
  const auto& vin = r.waveform(in_node);
  const bool out_rise = vout.back() > vdd / 2;
  const double t_in =
      spice::cross_time(r.time_ps, vin, vdd / 2, 0.0, in_rise);
  const double t_out =
      spice::cross_time(r.time_ps, vout, vdd / 2, t0 * 0.5, out_rise);
  if (t_in < 0 || t_out < 0) return m;
  m.delay_ps = t_out - t_in;
  m.slew_ps = spice::measure_slew(r.time_ps, vout, vdd, out_rise, t0 * 0.5);
  // Internal energy: VDD work minus the external-load charge (counted by the
  // power engine as net switching power). Idle leakage over the run is in
  // the nW range and negligible against ~fJ transitions.
  m.energy_fj = r.source_energy_fj.at(st.cc.vdd_node);
  if (out_rise) m.energy_fj -= load_ff * vdd * vdd;
  m.energy_fj = std::max(0.0, m.energy_fj);
  m.valid = m.delay_ps > 0 && m.slew_ps > 0;
  return m;
}

/// DFF CK->Q point. Preamble loads the opposite value into the flop, then a
/// final measured CK edge captures D. Energy is isolated by differencing a
/// run with and without the final edge. Both runs are value-rewritten
/// clones of the shared template (same topology, same SimContext).
Measurement run_dff_point(const SweepTemplate& st, double vdd, bool q_rise,
                          double slew_ps, double load_ff, double t_stop_ps,
                          double dt_ps) {
  const double t_load = 60.0;    // first CK pulse: capture the old value
  const double t_d = 260.0;      // D switches to the new value
  const double t_edge = 360.0;   // measured CK edge
  auto make = [&](bool with_final_edge) {
    spice::Circuit ckt = st.cc.ckt;
    ckt.set_capacitor_ff(st.load_idx, load_ff);
    const double d_old = q_rise ? 0.0 : vdd;
    const double d_new = q_rise ? vdd : 0.0;
    ckt.set_source_wave(
        st.src_idx[0],
        spice::Pwl{{{0.0, d_old}, {t_d, d_old}, {t_d + 20.0, d_new}}});
    spice::Pwl ck;
    ck.points = {{0.0, 0.0},
                 {t_load, 0.0},
                 {t_load + 10.0, vdd},
                 {t_load + 110.0, vdd},
                 {t_load + 120.0, 0.0}};
    if (with_final_edge) {
      ck.points.push_back({t_edge, 0.0});
      ck.points.push_back({t_edge + slew_ps, vdd});
    }
    ckt.set_source_wave(st.src_idx[1], ck);
    return ckt;
  };

  spice::TranOptions topt;
  topt.t_stop_ps = t_stop_ps;
  topt.dt_ps = dt_ps;

  const int q_node = st.cc.net_node.at("Q");
  const int ck_node = st.cc.net_node.at("CK");
  const spice::Circuit with = make(true);
  topt.probes = {q_node, ck_node};
  const spice::TranResult r1 = spice::simulate(with, topt, &st.ctx);
  const spice::Circuit without = make(false);
  const spice::TranResult r0 = spice::simulate(without, topt, &st.ctx);

  Measurement m;
  if (!r1.converged || !r0.converged) return m;
  const auto& vq = r1.waveform(q_node);
  const auto& vck = r1.waveform(ck_node);
  const double t_ck = spice::cross_time(r1.time_ps, vck, vdd / 2, t_edge - 5.0, true);
  const double t_q = spice::cross_time(r1.time_ps, vq, vdd / 2, t_edge, q_rise);
  if (t_ck < 0 || t_q < 0) return m;
  m.delay_ps = t_q - t_ck;
  m.slew_ps = spice::measure_slew(r1.time_ps, vq, vdd, q_rise, t_edge);
  m.energy_fj = r1.source_energy_fj.at(st.cc.vdd_node) -
                r0.source_energy_fj.at(st.cc.vdd_node);
  if (q_rise) m.energy_fj -= load_ff * vdd * vdd;
  m.energy_fj = std::max(0.0, m.energy_fj);
  m.valid = m.delay_ps > 0 && m.slew_ps > 0;
  return m;
}

double measure_leakage_uw(const cells::CellSpec& spec,
                          const cells::CellLayout& layout,
                          cells::SiliconModel silicon, double vdd) {
  const auto& inputs = spec.inputs();
  const int n = static_cast<int>(inputs.size());
  const bool seq = spec.sequential();
  const size_t states = size_t{1} << n;
  // Template + shared context prepared once; every minterm circuit is a
  // value-rewritten clone with identical topology.
  SweepTemplate st;
  st.cc = build(spec, layout, silicon);
  st.cc.ckt.add_source(st.cc.vdd_node, spice::Pwl::dc(vdd));
  for (int i = 0; i < n; ++i) {
    st.src_idx.push_back(st.cc.ckt.sources().size());
    st.cc.ckt.add_source(st.cc.net_node.at(inputs[static_cast<size_t>(i)]),
                         spice::Pwl::dc(0.0));
  }
  st.ctx.prepare(st.cc.ckt);
  // One minterm per chunk (grain 1), so the left-to-right partial fold is
  // the exact same `total += state` sequence the serial loop performed.
  const double total = exec::parallel_reduce(
      states, 0.0,
      [&](size_t mb, size_t me) {
        double part = 0.0;
        for (size_t ms = mb; ms < me; ++ms) {
          const uint32_t m = static_cast<uint32_t>(ms);
          spice::Circuit ckt = st.cc.ckt;
          for (int i = 0; i < n; ++i) {
            const std::string& pin = inputs[static_cast<size_t>(i)];
            const double v = ((m >> i) & 1u) ? vdd : 0.0;
            if (seq && pin == "CK") {
              // Pulse the clock first so the internal latches settle into a
              // real state (a cold DC solve can park the feedback loops at a
              // metastable midpoint and report crowbar current as leakage).
              spice::Pwl ck;
              ck.points = {{0.0, 0.0}, {50.0, 0.0}, {60.0, vdd},
                           {150.0, vdd}, {160.0, v}};
              ckt.set_source_wave(st.src_idx[static_cast<size_t>(i)], ck);
            } else {
              ckt.set_source_wave(st.src_idx[static_cast<size_t>(i)],
                                  spice::Pwl::dc(v));
            }
          }
          spice::TranOptions topt;
          topt.t_stop_ps = seq ? 500.0 : 100.0;
          topt.dt_ps = seq ? 1.0 : 5.0;
          topt.tail_ps = seq ? 100.0 : 0.0;
          const spice::TranResult r = spice::simulate(ckt, topt, &st.ctx);
          // mA * V = mW; convert to uW.
          part += r.source_avg_current_ma.at(st.cc.vdd_node) * vdd * 1000.0;
        }
        return part;
      },
      [](double a, double b) { return a + b; }, /*grain=*/1);
  return states > 0 ? std::max(0.0, total / static_cast<double>(states)) : 0.0;
}

/// Replaces failed (zero) characterization points with the nearest valid
/// neighbour so interpolation never sees holes.
void patch_holes(NldmTable* t) {
  const int ns = static_cast<int>(t->slew_ps.size());
  const int nl = static_cast<int>(t->load_ff.size());
  for (int si = 0; si < ns; ++si) {
    for (int li = 0; li < nl; ++li) {
      if (t->cell(static_cast<size_t>(si), static_cast<size_t>(li)) > 0.0) continue;
      double best = 0.0;
      int best_dist = 1 << 20;
      for (int sj = 0; sj < ns; ++sj) {
        for (int lj = 0; lj < nl; ++lj) {
          const double v = t->cell(static_cast<size_t>(sj), static_cast<size_t>(lj));
          const int dist = std::abs(si - sj) + std::abs(li - lj);
          if (v > 0.0 && dist < best_dist) {
            best = v;
            best_dist = dist;
          }
        }
      }
      t->cell(static_cast<size_t>(si), static_cast<size_t>(li)) = best;
    }
  }
}

/// Measures DFF setup time: bisect the D-to-CK separation until the flop
/// fails to capture or its clk->q delay degrades more than 10% over the
/// comfortable-setup baseline (the standard characterization criterion).
double measure_setup_ps(const cells::CellSpec& spec,
                        const cells::CellLayout& layout,
                        cells::SiliconModel silicon, double vdd) {
  const double slew = 20.0, load = 3.2;
  // All bisection probes share one template/context: only the D waveform
  // moves between iterations.
  SweepTemplate st = make_dff_template(spec, layout, silicon, vdd);
  st.cc.ckt.set_capacitor_ff(st.load_idx, load);
  const int q = st.cc.net_node.at("Q");
  auto q_delay = [&](double separation_ps) {
    const double t_edge = 400.0;
    spice::Circuit ckt = st.cc.ckt;
    // Preamble loads 0; D rises `separation_ps` before the edge.
    ckt.set_source_wave(st.src_idx[0],
                        spice::Pwl{{{0.0, 0.0},
                                    {t_edge - separation_ps, 0.0},
                                    {t_edge - separation_ps + 10.0, vdd}}});
    spice::Pwl ck;
    ck.points = {{0.0, 0.0},     {60.0, 0.0}, {70.0, vdd},
                 {170.0, vdd},   {180.0, 0.0}, {t_edge, 0.0},
                 {t_edge + slew, vdd}};
    ckt.set_source_wave(st.src_idx[1], ck);
    spice::TranOptions topt;
    topt.t_stop_ps = t_edge + 500.0;
    topt.dt_ps = 0.25;
    topt.probes = {q};
    const spice::TranResult r = spice::simulate(ckt, topt, &st.ctx);
    const double t_q =
        spice::cross_time(r.time_ps, r.waveform(q), vdd / 2, t_edge, true);
    return t_q < 0 ? -1.0 : t_q - (t_edge + slew / 2);
  };
  const double base = q_delay(200.0);
  if (base <= 0) return 40.0;  // measurement failed: fall back
  double lo = 0.0, hi = 200.0;
  for (int iter = 0; iter < 8; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double d = q_delay(mid);
    if (d < 0 || d > 1.1 * base) {
      lo = mid;  // fails or degrades: need more setup
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

spice::Circuit make_cell_circuit(const cells::CellSpec& spec,
                                 const cells::CellLayout& layout,
                                 cells::SiliconModel silicon) {
  return build(spec, layout, silicon).ckt;
}

LibCell characterize_cell(const cells::CellSpec& spec,
                          const cells::CellLayout& layout, double vdd_v,
                          const CharOptions& opt) {
  LibCell cell;
  cell.name = spec.name;
  cell.func = spec.func;
  cell.drive = spec.drive;
  cell.width_um = layout.width_um;
  cell.height_um = layout.height_um;
  cell.sequential = spec.sequential();
  cell.setup_ps = 0.0;
  if (cell.sequential) {
    cell.setup_ps = opt.measure_setup
                        ? measure_setup_ps(spec, layout, opt.silicon, vdd_v)
                        : opt.setup_ps;
  }
  cell.hold_ps = cell.sequential ? opt.hold_ps : 0.0;

  // Pin caps: gate caps of the transistors driven by the pin + the pin net's
  // wire capacitance.
  for (const auto& pin : spec.inputs()) {
    double cap = 0.0;
    for (const auto& t : spec.transistors) {
      if (t.gate == pin) {
        cap += (t.pmos ? spice::ptm45_pmos() : spice::ptm45_nmos()).cg_ff_um *
               t.w_um;
      }
    }
    const auto it = layout.nets.find(pin);
    if (it != layout.nets.end()) cap += it->second.c_ff(opt.silicon);
    cell.pin_cap_ff[pin] = cap;
  }

  const auto& slews = cell.sequential ? opt.dff_slews_ps : opt.slews_ps;
  auto blank_table = [&] {
    NldmTable t;
    t.slew_ps = slews;
    t.load_ff = opt.loads_ff;
    t.value.assign(slews.size() * opt.loads_ff.size(), 0.0);
    return t;
  };

  if (cell.sequential) {
    TimingArc arc;
    arc.from = "CK";
    arc.to = "Q";
    for (int e = 0; e < 2; ++e) {
      arc.delay[e] = blank_table();
      arc.out_slew[e] = blank_table();
      arc.energy[e] = blank_table();
    }
    // SoA sweep batch: stimulus parameters and transient windows for the
    // whole (slew, load) grid precomputed into flat parallel arrays, one
    // template circuit + SimContext shared by every point, and a flat
    // result buffer written back serially in point order (the same
    // last-write-wins order as a serial sweep). One task per point, each
    // writing only its own result slots, so the sweep parallelizes
    // bit-identically at any thread count.
    const SweepTemplate st =
        make_dff_template(spec, layout, opt.silicon, vdd_v);
    const size_t nl = opt.loads_ff.size();
    const size_t np = slews.size() * nl;
    std::vector<double> p_slew(np), p_load(np), p_tstop(np), p_dt(np);
    for (size_t p = 0; p < np; ++p) {
      p_slew[p] = slews[p / nl];
      p_load[p] = opt.loads_ff[p % nl];
      p_tstop[p] = dff_t_stop(p_slew[p], p_load[p]);
      p_dt[p] = dff_dt(p_slew[p], p_tstop[p]);
    }
    std::vector<Measurement> meas(np * 2);
    exec::parallel_for(
        np,
        [&](size_t pb, size_t pe) {
          for (size_t p = pb; p < pe; ++p) {
            for (int e = 0; e < 2; ++e) {
              const bool q_rise = (e == static_cast<int>(Edge::kRise));
              meas[p * 2 + static_cast<size_t>(e)] =
                  run_dff_point(st, vdd_v, q_rise, p_slew[p], p_load[p],
                                p_tstop[p], p_dt[p]);
            }
          }
        },
        /*grain=*/1);
    for (size_t p = 0; p < np; ++p) {
      const size_t si = p / nl;
      const size_t li = p % nl;
      for (int e = 0; e < 2; ++e) {
        const Measurement& m = meas[p * 2 + static_cast<size_t>(e)];
        if (!m.valid) {
          util::warn(util::strf(
              "char: %s CK->Q %s failed at (%.1f, %.1f)", spec.name.c_str(),
              e == static_cast<int>(Edge::kRise) ? "rise" : "fall",
              p_slew[p], p_load[p]));
          continue;
        }
        arc.delay[e].cell(si, li) = m.delay_ps;
        arc.out_slew[e].cell(si, li) = m.slew_ps;
        arc.energy[e].cell(si, li) = m.energy_fj;
      }
    }
    cell.arcs.push_back(std::move(arc));
  } else {
    const auto& inputs = spec.inputs();
    const auto& outputs = spec.outputs();
    const size_t nl = opt.loads_ff.size();
    const size_t np = slews.size() * nl;
    // SoA point buffers, shared by every arc of the cell (the grid is the
    // same for all of them); per-point transient windows hoisted out of the
    // sim tasks.
    std::vector<double> p_slew(np), p_load(np), p_tstop(np), p_dt(np);
    for (size_t p = 0; p < np; ++p) {
      p_slew[p] = slews[p / nl];
      p_load[p] = opt.loads_ff[p % nl];
      p_tstop[p] = comb_t_stop(p_slew[p], p_load[p]);
      p_dt[p] = comb_dt(p_slew[p], p_tstop[p]);
    }
    for (size_t oi = 0; oi < outputs.size(); ++oi) {
      // One template + SimContext per output: the load cap location is the
      // only structural difference between arcs, so every input arc into
      // this output shares the same symbolic factorization.
      const SweepTemplate st =
          make_comb_template(spec, layout, opt.silicon, vdd_v, outputs[oi]);
      for (size_t ii = 0; ii < inputs.size(); ++ii) {
        const int base = find_sensitization(spec.func, static_cast<int>(ii),
                                            static_cast<int>(oi));
        if (base < 0) continue;  // input does not control this output
        TimingArc arc;
        arc.from = inputs[ii];
        arc.to = outputs[oi];
        for (int e = 0; e < 2; ++e) {
          arc.delay[e] = blank_table();
          arc.out_slew[e] = blank_table();
          arc.energy[e] = blank_table();
        }
        // One task per (slew, load) point, both in_rise edges inside it;
        // results land in a flat buffer and are written back serially in
        // point order, preserving the serial last-write-wins order at
        // cells both edges map to.
        std::vector<Measurement> meas(np * 2);
        exec::parallel_for(
            np,
            [&](size_t pb, size_t pe) {
              for (size_t p = pb; p < pe; ++p) {
                for (bool in_rise : {false, true}) {
                  meas[p * 2 + (in_rise ? 1 : 0)] = run_comb_point(
                      spec, st, vdd_v, inputs[ii], in_rise,
                      static_cast<uint32_t>(base), outputs[oi], p_slew[p],
                      p_load[p], p_tstop[p], p_dt[p]);
                }
              }
            },
            /*grain=*/1);
        for (size_t p = 0; p < np; ++p) {
          const size_t si = p / nl;
          const size_t li = p % nl;
          for (bool in_rise : {false, true}) {
            const Measurement& m = meas[p * 2 + (in_rise ? 1 : 0)];
            if (!m.valid) {
              util::warn(util::strf(
                  "char: %s %s->%s %s failed at (%.1f, %.1f)",
                  spec.name.c_str(), inputs[ii].c_str(), outputs[oi].c_str(),
                  in_rise ? "rise" : "fall", p_slew[p], p_load[p]));
              continue;
            }
            // Output edge for this input edge at the base minterm.
            const bool out_high_after = cells::eval(
                spec.func, static_cast<int>(oi),
                in_rise ? (static_cast<uint32_t>(base) | (1u << ii))
                        : static_cast<uint32_t>(base));
            const int e = out_high_after ? static_cast<int>(Edge::kRise)
                                         : static_cast<int>(Edge::kFall);
            arc.delay[e].cell(si, li) = m.delay_ps;
            arc.out_slew[e].cell(si, li) = m.slew_ps;
            arc.energy[e].cell(si, li) = m.energy_fj;
          }
        }
        cell.arcs.push_back(std::move(arc));
      }
    }
  }

  for (auto& arc : cell.arcs) {
    for (int e = 0; e < 2; ++e) {
      patch_holes(&arc.delay[e]);
      patch_holes(&arc.out_slew[e]);
      patch_holes(&arc.energy[e]);
    }
  }
  cell.leakage_uw = measure_leakage_uw(spec, layout, opt.silicon, vdd_v);
  return cell;
}

Library build_library_45nm(tech::Style style, const CharOptions& opt) {
  const tech::Tech tch(tech::Node::k45nm, style);
  Library lib;
  lib.name = util::strf("nangatelite_%s_45nm", tech::to_string(style));
  lib.node = tech::Node::k45nm;
  lib.style = style;
  lib.vdd_v = kVdd45;

  struct CellJob {
    cells::Func func;
    int drive;
  };
  std::vector<CellJob> jobs;
  for (cells::Func f : cells::all_comb_funcs()) {
    for (int d : cells::drive_options(f)) jobs.push_back({f, d});
  }
  for (int d : cells::drive_options(cells::Func::kDff)) {
    jobs.push_back({cells::Func::kDff, d});
  }
  // Characterize cells concurrently (each job writes only its own slot),
  // then add them to the library in the original job order so the library
  // is identical to a serial build.
  std::vector<LibCell> done(jobs.size());
  exec::parallel_for(
      jobs.size(),
      [&](size_t jb, size_t je) {
        for (size_t j = jb; j < je; ++j) {
          const cells::CellSpec spec = cells::make_spec(jobs[j].func,
                                                        jobs[j].drive);
          const cells::CellLayout layout = (style == tech::Style::k2D)
                                               ? cells::layout_2d(spec, tch)
                                               : cells::fold_tmi(spec, tch);
          done[j] = characterize_cell(spec, layout, kVdd45, opt);
          util::info(util::strf("characterized %s (%s)", spec.name.c_str(),
                                tech::to_string(style)));
        }
      },
      /*grain=*/1);
  for (LibCell& cell : done) lib.add(std::move(cell));
  return lib;
}

Library load_or_build_library(tech::Style style, const std::string& cache_dir,
                              const CharOptions& opt) {
  const std::string path = util::strf(
      "%s/nangatelite_%s_45nm.mlib", cache_dir.c_str(), tech::to_string(style));
  Library lib;
  if (read_library(path, &lib)) {
    util::info("loaded cached library " + path);
    return lib;
  }
  lib = build_library_45nm(style, opt);
  if (!write_library(path, lib)) {
    util::warn("could not cache library to " + path);
  }
  return lib;
}

}  // namespace m3d::liberty
