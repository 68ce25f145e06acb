#include "extract/extract.hpp"

#include <algorithm>

#include "circuit/index.hpp"
#include "geom/rect.hpp"

namespace m3d::extract {
namespace {

tech::LayerLevel to_tech_level(route::Level level) {
  switch (level) {
    case route::kLocal: return tech::LayerLevel::kLocal;
    case route::kIntermediate: return tech::LayerLevel::kIntermediate;
    default: return tech::LayerLevel::kGlobal;
  }
}

/// Average via R/C for reaching `level` from the pins (M1).
void via_rc(const tech::Tech& tech, route::Level level, double* r, double* c) {
  // Sum cut RC from M1 up to the first layer of the level.
  const int first = tech.stack().first_of(to_tech_level(level));
  double rr = 0.0, cc = 0.0;
  const int m1 = tech.stack().find("M1");
  for (int i = std::max(0, m1); i < first && i < static_cast<int>(tech.stack().cuts.size()); ++i) {
    rr += tech.cut(i).r_kohm;
    cc += tech.cut(i).c_ff;
  }
  *r = rr;
  *c = cc;
}

}  // namespace

double unit_r_kohm_um(const tech::Tech& tech, route::Level level) {
  const tech::LayerLevel tl = to_tech_level(level);
  double sum = 0.0;
  int n = 0;
  for (const auto& layer : tech.stack().layers) {
    if (layer.level == tl) {
      sum += layer.unit_r_kohm;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

double unit_c_ff_um(const tech::Tech& tech, route::Level level) {
  const tech::LayerLevel tl = to_tech_level(level);
  double sum = 0.0;
  int n = 0;
  for (const auto& layer : tech.stack().layers) {
    if (layer.level == tl) {
      sum += layer.unit_c_ff;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

Parasitics extract_from_placement(const circuit::Netlist& nl,
                                  const tech::Tech& tech) {
  Parasitics par(static_cast<size_t>(nl.num_nets()));
  const double node_scale = tech.node() == tech::Node::k7nm ? 7.0 / 45.0 : 1.0;
  const double t_local = 60.0 * node_scale;
  const double t_inter = 400.0 * node_scale;
  // Per-level unit RC and via stacks depend on the tech only.
  double unit_r[route::kNumLevels], unit_c[route::kNumLevels];
  double via_r[route::kNumLevels], via_c[route::kNumLevels];
  for (int l = 0; l < route::kNumLevels; ++l) {
    const auto level = static_cast<route::Level>(l);
    unit_r[l] = unit_r_kohm_um(tech, level);
    unit_c[l] = unit_c_ff_um(tech, level);
    via_rc(tech, level, &via_r[l], &via_c[l]);
  }
  const circuit::NetlistIndex idx(nl);

  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    geom::Rect box;
    if (net.driver.inst != circuit::kInvalid) box.expand(nl.inst(net.driver.inst).pos);
    for (const auto& s : net.sinks) {
      if (s.inst != circuit::kInvalid) box.expand(nl.inst(s.inst).pos);
    }
    for (int pi : idx.ports_of_net(n)) {
      box.expand(nl.ports()[static_cast<size_t>(pi)].pos);
    }
    if (box.empty()) continue;
    const double hpwl = box.half_perimeter();
    const double wl = hpwl * (1.0 + 0.1 * std::max(0, net.fanout() - 1));
    const route::Level level =
        wl <= t_local ? route::kLocal
                      : (wl <= t_inter ? route::kIntermediate : route::kGlobal);
    auto& p = par[static_cast<size_t>(n)];
    p.wirelength_um = wl;
    p.wire_cap_ff = wl * unit_c[level] + 2.0 * via_c[level];
    p.wire_res_kohm = wl * unit_r[level] + 2.0 * via_r[level];
    // Pre-route: a single lumped resistance for all sinks.
  }
  return par;
}

Parasitics extract_from_routes(const circuit::Netlist& nl,
                               const tech::Tech& tech,
                               const route::RouteResult& routes) {
  Parasitics par(static_cast<size_t>(nl.num_nets()));
  double unit_r[route::kNumLevels], unit_c[route::kNumLevels];
  for (int l = 0; l < route::kNumLevels; ++l) {
    unit_r[l] = unit_r_kohm_um(tech, static_cast<route::Level>(l));
    unit_c[l] = unit_c_ff_um(tech, static_cast<route::Level>(l));
  }
  // Representative via cut (local-level access).
  double via_r = 0.002, via_c = 0.01;
  if (!tech.stack().cuts.empty()) {
    via_r = tech.stack().cuts[tech.stack().cuts.size() / 2].r_kohm;
    via_c = tech.stack().cuts[tech.stack().cuts.size() / 2].c_ff;
  }

  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    const route::NetRoute& nr = routes.nets[static_cast<size_t>(n)];
    auto& p = par[static_cast<size_t>(n)];
    double cap = nr.vias * via_c;
    double res = nr.vias * via_r * 0.25;  // vias largely parallel across the tree
    for (int l = 0; l < route::kNumLevels; ++l) {
      cap += nr.wl_um[static_cast<size_t>(l)] * unit_c[l];
      res += nr.wl_um[static_cast<size_t>(l)] * unit_r[l];
      p.wirelength_um += nr.wl_um[static_cast<size_t>(l)];
    }
    p.wire_cap_ff = cap;
    p.wire_res_kohm = res;
    p.sink_res_kohm.resize(net.sinks.size(), res);
    for (size_t k = 0; k < net.sinks.size() && k < nr.sink_path_wl.size(); ++k) {
      double r = 0.0;
      for (int l = 0; l < route::kNumLevels; ++l) {
        r += nr.sink_path_wl[k][static_cast<size_t>(l)] * unit_r[l];
      }
      p.sink_res_kohm[k] = r + 2.0 * via_r;
    }
  }
  return par;
}

}  // namespace m3d::extract
