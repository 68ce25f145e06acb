#include "opt/opt.hpp"

#include <algorithm>
#include <cmath>

#include "sta/sta.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"
#include "util/trace.hpp"

namespace m3d::opt {
namespace {

/// Worst cell delay of `inst` at its present load, for a candidate variant.
double variant_delay_ps(const circuit::Instance& inst,
                        const liberty::LibCell* variant, double slew,
                        double load) {
  double d = 0.0;
  for (const auto& arc : variant->arcs) {
    d = std::max(d, arc.worst_delay(slew, load));
  }
  (void)inst;
  return d;
}

double input_slew_of(const circuit::Netlist& nl, const sta::TimingResult& t,
                     circuit::InstId id) {
  const auto& inst = nl.inst(id);
  double slew = 20.0;
  for (circuit::NetId in : inst.in_nets) {
    // Buffer insertion earlier in the same round can rewire an input to a
    // brand-new net the last STA never saw; it has no slew yet, so fall back
    // to the floor until the next round's STA covers it.
    if (static_cast<size_t>(in) >= t.slew_ps.size()) continue;
    slew = std::max(slew, t.slew_ps[static_cast<size_t>(in)]);
  }
  return slew;
}

}  // namespace

OptReport optimize(circuit::Netlist* nl, const liberty::Library& lib,
                   const ParasiticFn& parasitics, const OptOptions& opt) {
  OptReport rep;
  util::ScopedTimer opt_span(opt.allow_buffering ? "opt.preroute"
                                                 : "opt.postroute");
  sta::StaOptions sta_opt;
  sta_opt.clock_ns = opt.clock_ns;
  const double margin_ps = opt.downsize_margin_frac * opt.clock_ns * 1000.0;

  for (int round = 0; round < opt.rounds; ++round) {
    util::count("opt.rounds");
    const auto par = parasitics(*nl);
    const auto timing = sta::run_sta(*nl, par, sta_opt);
    rep.wns_ps = timing.wns_ps;
    rep.met = timing.met();
    int changed = 0;
    // Buffer insertion below grows the netlist mid-round, but `par` and
    // `timing` only cover what existed when this round's STA ran. Every loop
    // in this round must stop at these bounds — newcomers have no timing or
    // parasitics data until the next round revalidates them.
    const circuit::NetId round_nets = nl->num_nets();
    const int round_insts = nl->num_instances();

    // Max-transition fixing (design rule, independent of slack): upsize the
    // driver of any net whose slew exceeds the limit; if already at max
    // drive, split the net behind a buffer. Long 2D nets trip this far more
    // often than their T-MI counterparts — a large part of the buffer-count
    // gap the paper reports.
    for (circuit::NetId n = 0; n < round_nets; ++n) {
      const circuit::Net& net = nl->net(n);
      if (net.is_clock || net.sinks.empty()) continue;
      if (timing.slew_ps[static_cast<size_t>(n)] <= opt.max_slew_ps) continue;
      if (net.driver.inst == circuit::kInvalid) continue;
      const auto& drv = nl->inst(net.driver.inst);
      if (drv.libcell == nullptr) continue;
      const liberty::LibCell* bigger = lib.pick(drv.func, drv.drive * 2);
      if (bigger != nullptr && bigger->drive > drv.drive) {
        nl->resize_inst(net.driver.inst, lib, bigger->drive);
        ++rep.upsized;
        ++changed;
      } else if (opt.allow_buffering && net.fanout() >= 2 &&
                 !(drv.from_optimizer && net.fanout() <= 2)) {
        // Split the sinks into balanced geographic clusters, one sibling
        // buffer each, so repeated fixing builds a tree rather than a chain.
        std::vector<std::pair<double, circuit::PinRef>> by_pos;
        double load = 0.0;
        for (const auto& s : net.sinks) {
          if (s.inst == circuit::kInvalid) continue;
          const auto& si = nl->inst(s.inst);
          by_pos.push_back({si.pos.x + si.pos.y, s});
          if (si.libcell != nullptr) load += si.libcell->max_input_cap_ff();
        }
        if (by_pos.size() < 2) continue;
        std::sort(by_pos.begin(), by_pos.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        const int groups = std::clamp(static_cast<int>(std::ceil(load / 10.0)),
                                      2, static_cast<int>(by_pos.size()));
        const size_t per = (by_pos.size() + static_cast<size_t>(groups) - 1) /
                           static_cast<size_t>(groups);
        for (size_t g0 = 0; g0 < by_pos.size(); g0 += per) {
          const size_t g1 = std::min(g0 + per, by_pos.size());
          std::vector<circuit::PinRef> chunk;
          geom::Pt centroid{0, 0};
          for (size_t k = g0; k < g1; ++k) {
            chunk.push_back(by_pos[k].second);
            centroid += nl->inst(by_pos[k].second.inst).pos;
          }
          const circuit::InstId buf = nl->insert_buffer(n, chunk, lib, 4);
          auto& binst = nl->inst(buf);
          binst.pos = centroid * (1.0 / static_cast<double>(chunk.size()));
          if (opt.die != nullptr) {
            binst.pos = place::snap_to_row(
                *opt.die, binst.pos,
                binst.libcell != nullptr ? binst.libcell->width_um : 0.0);
          }
          binst.placed = true;
          ++rep.buffers_added;
        }
        ++changed;
      }
    }

    if (!timing.met()) {
      // --- Fix timing: upsize the worst gates. -----------------------------
      std::vector<std::pair<double, circuit::InstId>> worst;
      for (int i = 0; i < round_insts; ++i) {
        const auto& inst = nl->inst(i);
        if (inst.dead || inst.libcell == nullptr) continue;
        const double slack = timing.inst_slack_ps[static_cast<size_t>(i)];
        if (slack < 0) worst.push_back({slack, i});
      }
      std::sort(worst.begin(), worst.end());
      const size_t limit = std::max<size_t>(24, worst.size() / 4);
      for (size_t k = 0; k < worst.size() && k < limit; ++k) {
        const circuit::InstId id = worst[k].second;
        const auto& inst = nl->inst(id);
        const liberty::LibCell* bigger = lib.pick(inst.func, inst.drive * 2);
        if (bigger == nullptr || bigger->drive <= inst.drive) continue;
        const double slew = input_slew_of(*nl, timing, id);
        const double load = timing.load_ff[static_cast<size_t>(inst.out_nets[0])];
        const double d_old = variant_delay_ps(inst, inst.libcell, slew, load);
        const double d_new = variant_delay_ps(inst, bigger, slew, load);
        if (d_new < d_old) {
          nl->resize_inst(id, lib, bigger->drive);
          ++rep.upsized;
          ++changed;
        }
      }
      // --- Buffer long failing nets (topology change: pre-route only). -----
      if (opt.allow_buffering) {
        for (circuit::NetId n = 0; n < round_nets; ++n) {
          const circuit::Net& net = nl->net(n);
          if (net.is_clock || net.fanout() < 2) continue;
          if (net.driver.inst == circuit::kInvalid) continue;
          const double slack =
              timing.required_ps[static_cast<size_t>(n)] -
              timing.arrival_ps[static_cast<size_t>(n)];
          if (slack >= 0) continue;
          if (par[static_cast<size_t>(n)].wirelength_um < opt.buffer_net_wl_um) continue;
          // Only split when relieving the driver of half its load buys more
          // than the inserted buffer costs; otherwise buffering long nets
          // *adds* delay (wire RC here is small — the gain is load relief).
          {
            const auto& drv0 = nl->inst(net.driver.inst);
            if (drv0.libcell == nullptr) continue;
            const double slew0 = input_slew_of(*nl, timing, net.driver.inst);
            const double load0 = timing.load_ff[static_cast<size_t>(n)];
            const liberty::LibCell* bufcell = lib.pick(cells::Func::kBuf, 4);
            if (bufcell == nullptr) continue;
            const double gain =
                variant_delay_ps(drv0, drv0.libcell, slew0, load0) -
                variant_delay_ps(drv0, drv0.libcell, slew0, load0 * 0.55);
            const double cost =
                variant_delay_ps(drv0, bufcell, slew0, load0 * 0.5);
            if (gain < 1.2 * cost) continue;
          }
          // Move the far half of the sinks behind a buffer at their centroid.
          const geom::Pt src = nl->inst(net.driver.inst).pos;
          std::vector<std::pair<double, circuit::PinRef>> by_dist;
          for (const auto& s : net.sinks) {
            if (s.inst == circuit::kInvalid) continue;
            by_dist.push_back({geom::manhattan(src, nl->inst(s.inst).pos), s});
          }
          if (by_dist.size() < 2) continue;
          std::sort(by_dist.begin(), by_dist.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
          std::vector<circuit::PinRef> far;
          geom::Pt centroid{0, 0};
          for (size_t k = 0; k < by_dist.size() / 2; ++k) {
            far.push_back(by_dist[k].second);
            centroid += nl->inst(by_dist[k].second.inst).pos;
          }
          if (far.empty()) continue;
          const circuit::InstId buf = nl->insert_buffer(n, far, lib, 4);
          auto& binst = nl->inst(buf);
          binst.pos = centroid * (1.0 / static_cast<double>(far.size()));
          if (opt.die != nullptr) {
            binst.pos = place::snap_to_row(
                *opt.die, binst.pos,
                binst.libcell != nullptr ? binst.libcell->width_um : 0.0);
          }
          binst.placed = true;
          ++rep.buffers_added;
          ++changed;
        }
      }
    } else {
      // --- Power recovery: downsizing and buffer removal. ------------------
      if (opt.allow_downsizing) {
        for (int i = 0; i < round_insts; ++i) {
          const auto& inst = nl->inst(i);
          if (inst.dead || inst.libcell == nullptr || inst.drive <= 1) continue;
          const double slack = timing.inst_slack_ps[static_cast<size_t>(i)];
          if (slack < margin_ps) continue;
          const liberty::LibCell* smaller = lib.next_smaller(inst.func, inst.drive);
          if (smaller == nullptr) continue;
          const double slew = input_slew_of(*nl, timing, i);
          const double load = timing.load_ff[static_cast<size_t>(inst.out_nets[0])];
          const double d_old = variant_delay_ps(inst, inst.libcell, slew, load);
          const double d_new = variant_delay_ps(inst, smaller, slew, load);
          // Respect the max-transition design rule (else recovery would undo
          // the slew fixes above).
          double slew_new = 0.0;
          for (const auto& arc : smaller->arcs) {
            slew_new = std::max(slew_new, arc.worst_slew(slew, load));
          }
          if (slew_new > opt.max_slew_ps) continue;
          // Conservative: many gates share one path's slack, so each change
          // may only claim a small fraction of it. The next round's STA
          // revalidates.
          if (d_new - d_old < slack * 0.1) {
            nl->resize_inst(i, lib, smaller->drive);
            ++rep.downsized;
            ++changed;
          }
        }
      }
      if (opt.allow_buffering) {
        // Remove optimizer buffers whose removal keeps comfortable slack.
        for (int i = 0; i < round_insts; ++i) {
          const auto& inst = nl->inst(i);
          if (inst.dead || !inst.from_optimizer ||
              inst.func != cells::Func::kBuf) {
            continue;
          }
          const double slack = timing.inst_slack_ps[static_cast<size_t>(i)];
          const double slew = input_slew_of(*nl, timing, i);
          const double load = timing.load_ff[static_cast<size_t>(inst.out_nets[0])];
          const double d_buf = variant_delay_ps(inst, inst.libcell, slew, load);
          // Electrical guard: removal must not recreate an overloaded net.
          // Skip buffers touching nets created earlier this round (e.g. by
          // the slew fixer above): their loads are unknown until the next STA.
          const circuit::NetId src = inst.in_nets[0];
          const circuit::NetId dst = inst.out_nets[0];
          if (src >= round_nets || dst >= round_nets) continue;
          const double merged_load = timing.load_ff[static_cast<size_t>(src)] +
                                     timing.load_ff[static_cast<size_t>(dst)];
          const int merged_fanout =
              nl->net(src).fanout() + nl->net(dst).fanout() - 1;
          if (slack > margin_ps + 5.0 * d_buf && merged_load < 25.0 &&
              merged_fanout <= 16) {
            nl->remove_buffer(i);
            ++rep.buffers_removed;
            ++changed;
          }
        }
      }
      if (changed == 0) break;
    }
    if (changed == 0 && !timing.met()) break;  // stuck
  }

  // Final fix-up: never leave recovery damage behind — pure upsizing until
  // timing is met again or no further gain.
  for (int round = 0; round < 6; ++round) {
    const auto par = parasitics(*nl);
    const auto timing = sta::run_sta(*nl, par, sta_opt);
    if (timing.met()) break;
    util::count("opt.fixup_rounds");
    int changed = 0;
    for (int i = 0; i < nl->num_instances(); ++i) {
      const auto& inst = nl->inst(i);
      if (inst.dead || inst.libcell == nullptr) continue;
      if (timing.inst_slack_ps[static_cast<size_t>(i)] >= 0) continue;
      const liberty::LibCell* bigger = lib.pick(inst.func, inst.drive * 2);
      if (bigger == nullptr || bigger->drive <= inst.drive) continue;
      const double slew = input_slew_of(*nl, timing, i);
      const double load = timing.load_ff[static_cast<size_t>(inst.out_nets[0])];
      if (variant_delay_ps(inst, bigger, slew, load) <
          variant_delay_ps(inst, inst.libcell, slew, load)) {
        nl->resize_inst(i, lib, bigger->drive);
        ++rep.upsized;
        ++changed;
      }
    }
    if (changed == 0) break;
  }

  // Resizing widens cells in place, which can overlap row neighbors or poke
  // past the die boundary; a deterministic per-row shove restores legality
  // (each cell moves by at most its row's accumulated width growth).
  if (opt.die != nullptr) place::relegalize_rows(nl, *opt.die);

  // Final status.
  const auto par = parasitics(*nl);
  const auto timing = sta::run_sta(*nl, par, sta_opt);
  rep.wns_ps = timing.wns_ps;
  rep.met = timing.met();
  util::count("opt.upsized", rep.upsized);
  util::count("opt.downsized", rep.downsized);
  util::count("opt.buffers_added", rep.buffers_added);
  util::count("opt.buffers_removed", rep.buffers_removed);
  util::info(util::strf("opt %s: wns=%+.0f ps, +%d/-%d sizes, +%d/-%d bufs",
                        nl->name.c_str(), rep.wns_ps, rep.upsized,
                        rep.downsized, rep.buffers_added, rep.buffers_removed));
  return rep;
}

}  // namespace m3d::opt
