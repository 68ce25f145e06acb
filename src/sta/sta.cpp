#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "exec/exec.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"
#include "util/trace.hpp"

namespace m3d::sta {
namespace {

constexpr double kInf = std::numeric_limits<double>::max() / 4;
constexpr double kPoLoadFf = 2.0;  // assumed load on primary outputs
// Minimum instances per pool task in a level sweep. Narrow levels (most of
// them) run inline; the grain depends only on the bucket size, so chunk
// boundaries never depend on the thread count.
constexpr size_t kMinLevelGrain = 256;

size_t level_grain(size_t n) {
  return std::max(kMinLevelGrain, exec::chunk_grain(n, 0));
}

/// Flat, levelized view of a netlist for one STA call. Every name-keyed
/// library lookup the propagation needs (input pin caps, arcs per
/// input/output pair, the flop CK->Q arc) is resolved here once per
/// distinct LibCell, so the passes below index flat arrays only.
/// Input pins are numbered by slot: instance i owns slots
/// [pin_off[i], pin_off[i+1]), one per in_nets entry.
struct TimingGraph {
  struct Cell {
    size_t nin = 0;
    size_t arc_off = 0;  // nin * nout arcs, output-major, in `arcs`
    size_t cap_off = 0;  // nin input caps, used while building
    const liberty::TimingArc* ck_q = nullptr;
  };
  std::vector<size_t> pin_off;
  std::vector<double> pin_cap;  // per slot; 0 on unbound instances
  std::vector<int> cell_of;     // per instance; -1 if unbound
  std::vector<Cell> cells;
  std::vector<const liberty::TimingArc*> arcs;
  size_t max_out = 1;  // most outputs of any cell: the arc-delay stride
  std::vector<circuit::InstId> order;  // nl.topo_order()
  // Bound combinational instances bucketed by level (CSR over level_insts).
  std::vector<size_t> level_off;
  std::vector<circuit::InstId> level_insts;

  size_t slot(const circuit::PinRef& s) const {
    return pin_off[static_cast<size_t>(s.inst)] + static_cast<size_t>(s.pin);
  }
  const Cell& cell(circuit::InstId id) const {
    return cells[static_cast<size_t>(cell_of[static_cast<size_t>(id)])];
  }
  const liberty::TimingArc* arc(const Cell& c, size_t p, size_t o) const {
    return arcs[c.arc_off + o * c.nin + p];
  }
  size_t num_levels() const { return level_off.size() - 1; }
  std::span<const circuit::InstId> level(size_t lv) const {
    return {level_insts.data() + level_off[lv], level_off[lv + 1] - level_off[lv]};
  }
};

TimingGraph build_graph(const circuit::Netlist& nl) {
  const size_t num_inst = static_cast<size_t>(nl.num_instances());
  TimingGraph g;
  g.pin_off.assign(num_inst + 1, 0);
  g.cell_of.assign(num_inst, -1);
  std::vector<double> cell_caps;  // per cell, its nin input caps
  // Lookup only (never iterated): cell ids follow first use in instance order.
  std::unordered_map<const liberty::LibCell*, int> cell_id;
  auto add_cell = [&](const liberty::LibCell& lc) {
    const auto& in_pins = cells::input_pins(lc.func);
    const auto& out_pins = cells::output_pins(lc.func);
    TimingGraph::Cell c;
    c.nin = in_pins.size();
    c.arc_off = g.arcs.size();
    g.max_out = std::max(g.max_out, out_pins.size());
    for (const auto& out : out_pins) {
      for (const auto& in : in_pins) g.arcs.push_back(lc.arc(in, out));
    }
    c.ck_q = lc.arc("CK", "Q");
    c.cap_off = cell_caps.size();
    for (const auto& in : in_pins) cell_caps.push_back(lc.input_cap_ff(in));
    g.cells.push_back(c);
  };
  for (size_t i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(static_cast<circuit::InstId>(i));
    const size_t nin = inst.in_nets.size();
    g.pin_off[i + 1] = g.pin_off[i] + nin;
    if (inst.libcell == nullptr) {
      g.pin_cap.resize(g.pin_off[i + 1], 0.0);
      continue;
    }
    // Every binding path picks the cell by the instance's func, so the
    // cell's pin names are the instance's.
    assert(inst.libcell->func == inst.func);
    const auto [it, fresh] =
        cell_id.try_emplace(inst.libcell, static_cast<int>(g.cells.size()));
    if (fresh) add_cell(*inst.libcell);
    g.cell_of[i] = it->second;
    const TimingGraph::Cell& cell = g.cells[static_cast<size_t>(it->second)];
    assert(nin <= cell.nin);
    const auto caps = cell_caps.begin() + static_cast<std::ptrdiff_t>(cell.cap_off);
    g.pin_cap.insert(g.pin_cap.end(), caps, caps + static_cast<std::ptrdiff_t>(nin));
  }

  // Levels use the same edge rule as topo_order (combinational drivers
  // only): a flop or primary input starts every path at level 0.
  g.order = nl.topo_order();
  std::vector<int> level(num_inst, 0);
  std::vector<size_t> level_size;
  for (circuit::InstId id : g.order) {
    const circuit::Instance& inst = nl.inst(id);
    int lv = 0;
    if (!inst.sequential()) {
      for (circuit::NetId in : inst.in_nets) {
        const auto& drv = nl.net(in).driver;
        if (drv.inst != circuit::kInvalid && !nl.inst(drv.inst).sequential()) {
          lv = std::max(lv, level[static_cast<size_t>(drv.inst)] + 1);
        }
      }
    }
    level[static_cast<size_t>(id)] = lv;
    if (inst.sequential() || inst.libcell == nullptr) continue;
    if (static_cast<size_t>(lv) >= level_size.size()) {
      level_size.resize(static_cast<size_t>(lv) + 1, 0);
    }
    ++level_size[static_cast<size_t>(lv)];
  }
  g.level_off.assign(level_size.size() + 1, 0);
  for (size_t lv = 0; lv < level_size.size(); ++lv) {
    g.level_off[lv + 1] = g.level_off[lv] + level_size[lv];
  }
  g.level_insts.resize(g.level_off.back());
  std::vector<size_t> cursor(g.level_off.begin(), g.level_off.end() - 1);
  for (circuit::InstId id : g.order) {
    const circuit::Instance& inst = nl.inst(id);
    if (inst.sequential() || inst.libcell == nullptr) continue;
    g.level_insts[cursor[static_cast<size_t>(level[static_cast<size_t>(id)])]++] = id;
  }
  return g;
}

/// Pin capacitance of a sink (0 for unbound instances), as seen by STA:
/// primary-output sinks carry the assumed pad load.
double sink_cap_ff(const TimingGraph& g, const circuit::PinRef& s) {
  return s.inst == circuit::kInvalid ? kPoLoadFf : g.pin_cap[g.slot(s)];
}

}  // namespace

double net_delay_ps(const extract::NetParasitics& par, size_t sink_idx,
                    double sink_pin_cap_ff) {
  // Elmore with the wire cap split around the sink resistance.
  return par.sink_res(sink_idx) * (0.5 * par.wire_cap_ff + sink_pin_cap_ff);
}

TimingResult run_sta(const circuit::Netlist& nl, const extract::Parasitics& par,
                     const StaOptions& opt) {
  // Counters only (no span): run_sta sits inside the optimizer's inner loop,
  // so per-call span logging would swamp the debug stream. The histogram
  // still captures every call's duration.
  const util::ScopedMsObserver observer("sta.run_sta_ms");
  util::count("sta.runs");
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  const double clock_ps = opt.clock_ns * 1000.0;
  assert(static_cast<int>(par.size()) == num_nets);
  const TimingGraph g = build_graph(nl);

  TimingResult r;
  r.arrival_ps.assign(static_cast<size_t>(num_nets), 0.0);
  r.slew_ps.assign(static_cast<size_t>(num_nets), opt.primary_input_slew_ps);
  r.required_ps.assign(static_cast<size_t>(num_nets), kInf);
  r.inst_slack_ps.assign(static_cast<size_t>(num_inst), kInf);
  r.load_ff.assign(static_cast<size_t>(num_nets), 0.0);

  // Loads: each net writes only its own slot.
  exec::parallel_for(static_cast<size_t>(num_nets), [&](size_t nb, size_t ne) {
    for (size_t n = nb; n < ne; ++n) {
      const circuit::Net& net = nl.net(static_cast<circuit::NetId>(n));
      double load = par[n].wire_cap_ff;
      for (const auto& s : net.sinks) load += sink_cap_ff(g, s);
      r.load_ff[n] = load;
    }
  });

  // Arrival/slew at each instance input pin, by slot.
  const size_t num_pins = g.pin_cap.size();
  std::vector<double> arr_in(num_pins, 0.0);
  std::vector<double> slew_in(num_pins, opt.primary_input_slew_ps);
  // Cell delay of each arc, by (input slot, output): the backward pass needs
  // the same lookups at the same (slew, load).
  std::vector<double> arc_delay(num_pins * g.max_out);

  auto propagate_net = [&](circuit::NetId n) {
    const circuit::Net& net = nl.net(n);
    const auto& p = par[static_cast<size_t>(n)];
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      const size_t slot = g.slot(s);
      const double nd = net_delay_ps(p, k, g.pin_cap[slot]);
      const double elmore = nd;
      arr_in[slot] = r.arrival_ps[static_cast<size_t>(n)] + nd;
      const double sl = r.slew_ps[static_cast<size_t>(n)];
      slew_in[slot] =
          std::sqrt(sl * sl + opt.slew_degrade_k * opt.slew_degrade_k * elmore * elmore);
    }
  };

  // Sources: primary-input nets and DFF outputs.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_primary_input || net.is_clock) {
      r.arrival_ps[static_cast<size_t>(n)] = 0.0;
      r.slew_ps[static_cast<size_t>(n)] =
          net.is_clock ? opt.clock_slew_ps : opt.primary_input_slew_ps;
      propagate_net(n);
    }
  }
  for (int i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    const circuit::NetId q = inst.out_nets[0];
    const liberty::TimingArc* arc = g.cell(i).ck_q;
    const double load = r.load_ff[static_cast<size_t>(q)];
    r.arrival_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_delay(opt.clock_slew_ps, load) : 0.0;
    r.slew_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_slew(opt.clock_slew_ps, load) : opt.clock_slew_ps;
    propagate_net(q);
  }

  // Forward pass over combinational instances, one topological level at a
  // time. Every value an instance reads (its input slots, written by its
  // drivers' propagate_net) is finalized by the barrier between levels.
  // Within a level all writes are disjoint — an instance touches only its
  // own output nets' arrival/slew and its sink pins' slots, each of which
  // has exactly one driver — so the chunks can run concurrently and the
  // result is bit-identical to serial.
  util::count("sta.arrivals_propagated", static_cast<double>(g.order.size()));
  util::set_gauge("sta.levels", static_cast<double>(g.num_levels()));
  for (size_t lv = 0; lv < g.num_levels(); ++lv) {
    const auto bucket = g.level(lv);
    exec::parallel_for(
        bucket.size(),
        [&](size_t kb, size_t ke) {
          for (size_t k = kb; k < ke; ++k) {
            const circuit::InstId id = bucket[k];
            const circuit::Instance& inst = nl.inst(id);
            const TimingGraph::Cell& cell = g.cell(id);
            const size_t base = g.pin_off[static_cast<size_t>(id)];
            for (size_t o = 0; o < inst.out_nets.size(); ++o) {
              const circuit::NetId out = inst.out_nets[o];
              const double load = r.load_ff[static_cast<size_t>(out)];
              double arr = 0.0, slew = opt.primary_input_slew_ps;
              for (size_t p = 0; p < inst.in_nets.size(); ++p) {
                const liberty::TimingArc* arc = g.arc(cell, p, o);
                if (arc == nullptr) continue;
                const double in_slew = slew_in[base + p];
                const double d = arc->worst_delay(in_slew, load);
                arc_delay[(base + p) * g.max_out + o] = d;
                const double a = arr_in[base + p] + d;
                if (a > arr) {
                  arr = a;
                  slew = arc->worst_slew(in_slew, load);
                }
              }
              r.arrival_ps[static_cast<size_t>(out)] = arr;
              r.slew_ps[static_cast<size_t>(out)] = slew;
              propagate_net(out);
            }
          }
        },
        level_grain(bucket.size()));
  }

  // Endpoint slacks: DFF D pins and primary outputs.
  r.wns_ps = kInf;
  r.tns_ps = 0.0;
  std::vector<double> req_in(num_pins, kInf);
  auto note_endpoint = [&](double arrival, double required,
                           circuit::NetId net) {
    const double slack = required - arrival;
    if (slack < r.wns_ps) {
      r.wns_ps = slack;
    }
    if (slack < 0) r.tns_ps += slack;
    if (arrival > r.critical_path_ps) {
      r.critical_path_ps = arrival;
      r.critical_endpoint = net;
    }
  };
  for (int i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    // D pin is input 0 of the DFF.
    const size_t d_slot = g.pin_off[static_cast<size_t>(i)];
    const double arr = arr_in[d_slot];
    const double req = clock_ps - inst.libcell->setup_ps;
    req_in[d_slot] = req;
    note_endpoint(arr, req, inst.in_nets[0]);
  }
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (!net.is_primary_output) continue;
    note_endpoint(r.arrival_ps[static_cast<size_t>(n)], clock_ps, n);
  }
  if (r.wns_ps >= kInf / 2) r.wns_ps = clock_ps;  // no endpoints

  // Required time at a net's driver pin: min over its sinks.
  auto net_required = [&](circuit::NetId n) {
    const circuit::Net& net = nl.net(n);
    double req = net.is_primary_output ? clock_ps : kInf;
    const auto& p = par[static_cast<size_t>(n)];
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      const size_t slot = g.slot(s);
      const double nd = net_delay_ps(p, k, g.pin_cap[slot]);
      req = std::min(req, req_in[slot] - nd);
    }
    return req;
  };

  // Backward pass. Levels run highest-first; an instance reads the slots of
  // its sinks (all at strictly higher levels, or DFF D pins pre-set above)
  // and writes only its own output nets' required_ps and its own slots, so
  // within a level the chunks are independent and the result matches the
  // serial reverse topological sweep bit for bit.
  for (size_t lv = g.num_levels(); lv-- > 0;) {
    const auto bucket = g.level(lv);
    exec::parallel_for(
        bucket.size(),
        [&](size_t kb, size_t ke) {
          for (size_t k = kb; k < ke; ++k) {
            const circuit::InstId id = bucket[k];
            const circuit::Instance& inst = nl.inst(id);
            const TimingGraph::Cell& cell = g.cell(id);
            const size_t base = g.pin_off[static_cast<size_t>(id)];
            for (size_t o = 0; o < inst.out_nets.size(); ++o) {
              const circuit::NetId out = inst.out_nets[o];
              const double req = net_required(out);
              r.required_ps[static_cast<size_t>(out)] = req;
              // Push through the cell to its input pins.
              for (size_t pi = 0; pi < inst.in_nets.size(); ++pi) {
                const liberty::TimingArc* arc = g.arc(cell, pi, o);
                if (arc == nullptr) continue;
                const double d = arc_delay[(base + pi) * g.max_out + o];
                req_in[base + pi] = std::min(req_in[base + pi], req - d);
              }
            }
          }
        },
        level_grain(bucket.size()));
  }
  // Required at source nets (DFF outputs / PIs) for completeness.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if (r.required_ps[static_cast<size_t>(n)] < kInf) continue;
    r.required_ps[static_cast<size_t>(n)] = net_required(n);
  }

  // Per-instance slack.
  for (int i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || inst.libcell == nullptr) continue;
    double slack = kInf;
    for (circuit::NetId out : inst.out_nets) {
      slack = std::min(slack, r.required_ps[static_cast<size_t>(out)] -
                                  r.arrival_ps[static_cast<size_t>(out)]);
    }
    r.inst_slack_ps[static_cast<size_t>(i)] = slack;
  }
  return r;
}

HoldResult run_hold_check(const circuit::Netlist& nl,
                          const extract::Parasitics& par,
                          const StaOptions& opt) {
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  const TimingGraph g = build_graph(nl);
  // Earliest arrival per net driver pin; min over arcs with *min* table
  // lookups (we reuse the NLDM tables; min over rise/fall).
  std::vector<double> early(static_cast<size_t>(num_nets), 0.0);
  std::vector<double> load(static_cast<size_t>(num_nets), 0.0);
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    double l = par[static_cast<size_t>(n)].wire_cap_ff;
    // Unlike setup loads, primary-output sinks add no pad load here.
    for (const auto& s : net.sinks) {
      if (s.inst == circuit::kInvalid) continue;
      if (nl.inst(s.inst).libcell == nullptr) continue;
      l += g.pin_cap[g.slot(s)];
    }
    load[static_cast<size_t>(n)] = l;
  }
  std::vector<double> early_in(g.pin_cap.size(), 0.0);
  auto push = [&](circuit::NetId n) {
    const circuit::Net& net = nl.net(n);
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      const size_t slot = g.slot(s);
      const double nd =
          net_delay_ps(par[static_cast<size_t>(n)], k, g.pin_cap[slot]);
      early_in[slot] = early[static_cast<size_t>(n)] + nd;
    }
  };
  // Primary inputs are externally timed: their paths cannot create hold
  // violations at internal flops, so they carry a huge early arrival.
  constexpr double kExternallyTimed = 1e7;
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if (nl.net(n).is_primary_input || nl.net(n).is_clock) {
      early[static_cast<size_t>(n)] = kExternallyTimed;
      push(n);
    }
  }
  for (int i = 0; i < num_inst; ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    const circuit::NetId q = inst.out_nets[0];
    const liberty::TimingArc* arc = g.cell(i).ck_q;
    double d = 0.0;
    if (arc != nullptr) {
      d = std::min(arc->delay[0].at(opt.clock_slew_ps, load[static_cast<size_t>(q)]),
                   arc->delay[1].at(opt.clock_slew_ps, load[static_cast<size_t>(q)]));
    }
    early[static_cast<size_t>(q)] = d;
    push(q);
  }
  for (circuit::InstId id : g.order) {
    const auto& inst = nl.inst(id);
    if (inst.sequential() || inst.libcell == nullptr) continue;
    const TimingGraph::Cell& cell = g.cell(id);
    const size_t base = g.pin_off[static_cast<size_t>(id)];
    for (size_t o = 0; o < inst.out_nets.size(); ++o) {
      const circuit::NetId out = inst.out_nets[o];
      double best = std::numeric_limits<double>::max();
      for (size_t p = 0; p < inst.in_nets.size(); ++p) {
        const liberty::TimingArc* arc = g.arc(cell, p, o);
        if (arc == nullptr) continue;
        const double d =
            std::min(arc->delay[0].at(opt.primary_input_slew_ps,
                                      load[static_cast<size_t>(out)]),
                     arc->delay[1].at(opt.primary_input_slew_ps,
                                      load[static_cast<size_t>(out)]));
        best = std::min(best, early_in[base + p] + d);
      }
      early[static_cast<size_t>(out)] =
          best == std::numeric_limits<double>::max() ? 0.0 : best;
      push(out);
    }
  }
  HoldResult res;
  res.worst_slack_ps = std::numeric_limits<double>::max();
  for (int i = 0; i < num_inst; ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    const double arr = early_in[g.pin_off[static_cast<size_t>(i)]];
    if (arr > kExternallyTimed / 2) continue;  // PI-fed: externally timed
    const double slack = arr - inst.libcell->hold_ps;
    if (slack < res.worst_slack_ps) res.worst_slack_ps = slack;
    if (slack < 0) ++res.violations;
  }
  if (res.worst_slack_ps == std::numeric_limits<double>::max()) {
    res.worst_slack_ps = 0.0;
  }
  return res;
}

std::string report_critical_path(const circuit::Netlist& nl,
                                 const TimingResult& timing) {
  std::string out = util::strf("critical path: %.1f ps, WNS %+.1f ps\n",
                               timing.critical_path_ps, timing.wns_ps);
  circuit::NetId n = timing.critical_endpoint;
  int hops = 0;
  while (n != circuit::kInvalid && hops++ < 64) {
    const circuit::Net& net = nl.net(n);
    out += util::strf("  net %-20s arr=%8.1f slew=%6.1f\n", net.name.c_str(),
                      timing.arrival_ps[static_cast<size_t>(n)],
                      timing.slew_ps[static_cast<size_t>(n)]);
    if (net.driver.inst == circuit::kInvalid) break;
    const circuit::Instance& d = nl.inst(net.driver.inst);
    if (d.sequential()) break;
    // Walk to the input with the latest arrival.
    circuit::NetId best = circuit::kInvalid;
    double best_arr = -1.0;
    for (circuit::NetId in : d.in_nets) {
      if (timing.arrival_ps[static_cast<size_t>(in)] > best_arr) {
        best_arr = timing.arrival_ps[static_cast<size_t>(in)];
        best = in;
      }
    }
    n = best;
  }
  return out;
}

}  // namespace m3d::sta
