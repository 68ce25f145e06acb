#include "power/power.hpp"

#include <algorithm>
#include <cmath>

namespace m3d::power {
namespace {

constexpr double kClockActivity = 2.0;  // two edges per cycle

/// Signal probability and transition density of a gate output given its
/// input probabilities/densities, from the truth table: p = P[f=1] and
/// a = sum_i a_i * P[f(x_i=0) != f(x_i=1)] (Boolean-difference model,
/// independence assumed).
void gate_activity(cells::Func func, int out_idx,
                   const std::vector<double>& p_in,
                   const std::vector<double>& a_in, double* p_out,
                   double* a_out) {
  const int n = cells::num_inputs(func);
  const auto tables = cells::truth_table(func);
  const uint64_t truth = tables[static_cast<size_t>(out_idx)];
  double p = 0.0;
  for (uint32_t m = 0; m < (1u << n); ++m) {
    if (!((truth >> m) & 1u)) continue;
    double pm = 1.0;
    for (int i = 0; i < n; ++i) {
      pm *= ((m >> i) & 1u) ? p_in[static_cast<size_t>(i)]
                            : 1.0 - p_in[static_cast<size_t>(i)];
    }
    p += pm;
  }
  double a = 0.0;
  for (int i = 0; i < n; ++i) {
    // P[boolean difference wrt x_i] over the other inputs.
    double pd = 0.0;
    for (uint32_t m = 0; m < (1u << n); ++m) {
      if ((m >> i) & 1u) continue;  // enumerate with x_i = 0
      const uint32_t m1 = m | (1u << i);
      if (((truth >> m) & 1u) == ((truth >> m1) & 1u)) continue;
      double pm = 1.0;
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        pm *= ((m >> j) & 1u) ? p_in[static_cast<size_t>(j)]
                              : 1.0 - p_in[static_cast<size_t>(j)];
      }
      pd += pm;
    }
    a += a_in[static_cast<size_t>(i)] * pd;
  }
  *p_out = p;
  *a_out = std::min(a, 1.0);  // a net cannot usefully toggle more than 1/cycle
}

}  // namespace

PowerResult run_power(const circuit::Netlist& nl, const extract::Parasitics& par,
                      const sta::TimingResult* timing, const PowerOptions& opt) {
  const int num_nets = nl.num_nets();
  PowerResult r;
  std::vector<double> prob(static_cast<size_t>(num_nets), 0.5);
  r.net_activity.assign(static_cast<size_t>(num_nets), 0.0);
  auto& act = r.net_activity;

  // Sources.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock) {
      act[static_cast<size_t>(n)] = kClockActivity;
    } else if (net.is_primary_input) {
      act[static_cast<size_t>(n)] = opt.pi_activity;
    }
  }
  for (int i = 0; i < nl.num_instances(); ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || !inst.sequential()) continue;
    act[static_cast<size_t>(inst.out_nets[0])] = opt.seq_activity;
    prob[static_cast<size_t>(inst.out_nets[0])] = 0.5;
  }

  // Propagate through combinational logic.
  for (circuit::InstId id : nl.topo_order()) {
    const circuit::Instance& inst = nl.inst(id);
    if (inst.sequential()) continue;
    std::vector<double> p_in, a_in;
    p_in.reserve(inst.in_nets.size());
    for (circuit::NetId in : inst.in_nets) {
      p_in.push_back(prob[static_cast<size_t>(in)]);
      a_in.push_back(act[static_cast<size_t>(in)]);
    }
    for (size_t o = 0; o < inst.out_nets.size(); ++o) {
      double p = 0.5, a = 0.0;
      if (inst.func == cells::Func::kBuf || inst.func == cells::Func::kInv) {
        // Exact pass-through — in particular the clock tree's activity of
        // 2 toggles/cycle must survive (the generic path caps at 1).
        p = inst.func == cells::Func::kInv ? 1.0 - p_in[0] : p_in[0];
        a = a_in[0];
      } else {
        gate_activity(inst.func, static_cast<int>(o), p_in, a_in, &p, &a);
      }
      prob[static_cast<size_t>(inst.out_nets[o])] = p;
      act[static_cast<size_t>(inst.out_nets[o])] = a;
    }
  }

  const double v2 = opt.vdd_v * opt.vdd_v;
  const double f_per_ns = 1.0 / opt.clock_ns;

  // Net switching power = 0.5 * a * C * V^2 * f, split wire vs pin.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.sinks.empty() && !net.is_primary_output) continue;
    const double a = act[static_cast<size_t>(n)];
    if (a <= 0.0) continue;
    const double wire_c = net.is_clock ? 0.0 : par[static_cast<size_t>(n)].wire_cap_ff;
    double pin_c = 0.0;
    for (const auto& s : net.sinks) {
      if (s.inst == circuit::kInvalid) continue;
      const circuit::Instance& si = nl.inst(s.inst);
      if (si.libcell == nullptr) continue;
      const auto& pins = cells::input_pins(si.func);
      pin_c += si.libcell->input_cap_ff(pins[static_cast<size_t>(s.pin)]);
    }
    // fF * V^2 * (1/ns) = uW.
    r.wire_uw += 0.5 * a * wire_c * v2 * f_per_ns;
    r.pin_uw += 0.5 * a * pin_c * v2 * f_per_ns;
    r.wire_cap_pf += wire_c / 1000.0;
    r.pin_cap_pf += pin_c / 1000.0;
  }
  r.net_switching_uw = r.wire_uw + r.pin_uw;

  // Cell internal power: NLDM energy per output toggle.
  for (int i = 0; i < nl.num_instances(); ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || inst.libcell == nullptr) continue;
    r.leakage_uw += inst.libcell->leakage_uw;
    for (size_t o = 0; o < inst.out_nets.size(); ++o) {
      const circuit::NetId out = inst.out_nets[o];
      const double a = act[static_cast<size_t>(out)];
      if (a <= 0.0) continue;
      const double load = timing != nullptr
                              ? timing->load_ff[static_cast<size_t>(out)]
                              : par[static_cast<size_t>(out)].wire_cap_ff;
      // Average the energy over this output's arcs.
      double e = 0.0;
      int cnt = 0;
      const auto& out_pins = cells::output_pins(inst.func);
      for (const auto& arc : inst.libcell->arcs) {
        if (arc.to != out_pins[o]) continue;
        const double slew =
            timing != nullptr && inst.in_nets.size() > 0
                ? timing->slew_ps[static_cast<size_t>(inst.in_nets[0])]
                : opt.default_slew_ps;
        e += arc.avg_energy(slew, load);
        ++cnt;
      }
      if (cnt > 0) e /= cnt;
      // A characterization run captures the whole cell's VDD draw; for
      // multi-output cells both outputs toggle in the measured event, so
      // attribute the energy once across the outputs.
      e /= static_cast<double>(inst.out_nets.size());
      r.cell_internal_uw += e * a * f_per_ns;
    }
  }

  r.total_uw = r.cell_internal_uw + r.net_switching_uw + r.leakage_uw;
  return r;
}

}  // namespace m3d::power
