#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "check/check.hpp"
#include "cts/cts.hpp"
#include "extract/extract.hpp"
#include "flow/artifacts.hpp"
#include "gen/gen.hpp"
#include "liberty/characterize.hpp"
#include "measure.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace perfbench {
namespace {

namespace flow = m3d::flow;
using m3d::util::strf;

// Every module a span can enter; the per-layer exec.* and *.rss_mb metrics
// are reported for each.
const char* const kLayers[] = {"gen",  "synth", "place", "cts",   "opt",   "extract",
                               "route", "sta",  "power", "check", "cells", "liberty"};

struct Span {
  std::string name;   // what was called ("opt.pre", "extract.opt", ...)
  std::string layer;  // module entered; empty for grouping spans (op, flow)
  int parent = -1;
  double start_s = 0.0, end_s = 0.0;
  double cpu_s = 0.0;                          // process CPU during the span
  double exec_tasks = 0.0, exec_steals = 0.0;  // global pool counter deltas
  double rss_mb = 0.0;                         // sampled when the span ends
  std::map<std::string, double> counters;      // seen through its own sink

  double ms() const { return 1000.0 * (end_s - start_s); }
};

/// In-memory span recorder for one serial op. The pool counters are global,
/// which is why the traced op runs its flows (and cells) one after another.
class Tracer {
 public:
  int open(std::string name, std::string layer) {
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.parent = current_;
    s.exec_tasks = -pool_counter("exec.tasks");
    s.exec_steals = -pool_counter("exec.steals");
    s.cpu_s = -process_cpu_s();
    s.start_s = wall_s();
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id, const m3d::util::MetricsRegistry* reg = nullptr) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_s = wall_s();
    s.cpu_s += process_cpu_s();
    s.exec_tasks += pool_counter("exec.tasks");
    s.exec_steals += pool_counter("exec.steals");
    s.rss_mb = rss_mb();
    if (reg != nullptr) s.counters = reg->counters();
    current_ = s.parent;
  }

  /// Runs `body` as one call into `layer`, under a span and a metrics sink
  /// of its own, and returns what it returns.
  template <typename F>
  auto call(std::string name, const char* layer, F&& body) {
    const int id = open(std::move(name), layer);
    m3d::util::MetricsRegistry reg;
    if constexpr (std::is_void_v<decltype(body())>) {
      {
        const m3d::util::ScopedMetricsSink sink(reg);
        body();
      }
      close(id, &reg);
    } else {
      auto result = [&] {
        const m3d::util::ScopedMetricsSink sink(reg);
        return body();
      }();
      close(id, &reg);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static double pool_counter(const char* name) {
    return m3d::util::MetricsRegistry::global().counter(name);
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

// --- flows -------------------------------------------------------------

// Mirrors flow.cpp's private default_wlm for the configurations the flow
// workloads use (statistical WLM, x0.75 for T-MI).
m3d::synth::Wlm default_wlm(const flow::FlowOptions& opt,
                            const m3d::circuit::Netlist& nl,
                            const m3d::tech::Tech& tch) {
  double cell_area = 0.0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead) continue;
    const auto* c = opt.lib->pick(inst.func, inst.drive);
    if (c != nullptr) cell_area += c->area_um2();
  }
  const double core = cell_area / std::max(0.2, opt.target_util);
  m3d::synth::Wlm wlm = m3d::synth::make_statistical_wlm(core, tch);
  if (tch.is_3d()) wlm = wlm.scaled(0.75);
  return wlm;
}

/// run_flow's stage sequence, one traced call per public layer entry point.
flow::FlowResult traced_flow(Tracer& tr, const flow::FlowOptions& opt) {
  namespace check = m3d::check;
  const m3d::tech::Tech tch(opt.node, opt.style);
  flow::FlowResult res;
  res.style = opt.style;
  res.clock_ns = opt.clock_ns;
  res.seed = opt.seed;
  res.check_level = opt.check_level;
  m3d::circuit::Netlist& nl = res.netlist;

  tr.call("gen", "gen", [&] {
    m3d::gen::GenOptions g;
    g.scale_shift = opt.scale_shift;
    g.seed = opt.seed;
    nl = m3d::gen::make_benchmark(opt.bench, g);
  });
  res.bench_name = nl.name;
  tr.call("synth", "synth", [&] {
    m3d::synth::SynthOptions s;
    s.clock_ns = opt.clock_ns;
    m3d::synth::synthesize(&nl, *opt.lib, default_wlm(opt, nl, tch), s);
  });
  tr.call("place", "place", [&] {
    res.die = m3d::place::make_die(&nl, opt.target_util, tch.row_height_um());
    m3d::place::PlaceOptions p;
    p.target_util = opt.target_util;
    p.seed = opt.seed;
    m3d::place::place_design(&nl, res.die, p);
  });
  tr.call("cts", "cts", [&] {
    m3d::cts::CtsOptions c;
    c.die = &res.die;
    m3d::cts::build_clock_tree(&nl, *opt.lib, c);
  });

  m3d::opt::OptOptions oopt;
  oopt.clock_ns = opt.clock_ns;
  oopt.die = &res.die;
  oopt.allow_buffering = true;
  oopt.buffer_net_wl_um = 120.0;  // 45nm
  tr.call("opt.pre", "opt", [&] {
    m3d::opt::optimize(&nl, *opt.lib,
                       [&](const m3d::circuit::Netlist& n) {
                         return tr.call("extract.opt", "extract", [&] {
                           return m3d::extract::extract_from_placement(n, tch);
                         });
                       },
                       oopt);
  });
  tr.call("route", "route", [&] {
    m3d::route::RouteOptions r;
    r.seed = opt.seed;
    r.local_blockage_frac = tch.is_3d() ? 0.03 : 0.0;
    res.routes = m3d::route::global_route(nl, res.die, tch, r);
  });
  tr.call("opt.post", "opt", [&] {
    m3d::opt::OptOptions post = oopt;
    post.allow_buffering = false;
    m3d::opt::optimize(&nl, *opt.lib,
                       [&](const m3d::circuit::Netlist& n) {
                         return tr.call("extract.opt", "extract", [&] {
                           return m3d::extract::extract_from_routes(n, tch, res.routes);
                         });
                       },
                       post);
  });

  const auto par = tr.call("extract.signoff", "extract", [&] {
    return m3d::extract::extract_from_routes(nl, tch, res.routes);
  });
  const auto timing = tr.call("sta.signoff", "sta", [&] {
    m3d::sta::StaOptions s;
    s.clock_ns = opt.clock_ns;
    return m3d::sta::run_sta(nl, par, s);
  });
  const auto power = tr.call("power", "power", [&] {
    m3d::power::PowerOptions pw;
    pw.clock_ns = opt.clock_ns;
    pw.vdd_v = opt.lib->vdd_v;
    pw.pi_activity = opt.pi_activity;
    pw.seq_activity = opt.seq_activity;
    return m3d::power::run_power(nl, par, &timing, pw);
  });
  res.checks = tr.call("check", "check", [&] {
    check::CheckResult cr = check::check_netlist(nl);
    cr.merge(check::check_timing(nl, timing));
    cr.merge(check::check_power(nl, power));
    if (opt.check_level == check::Level::kFull) {
      cr.merge(check::check_placement(nl, res.die));
      cr.merge(check::check_routing(nl, res.routes, tch));
      cr.merge(check::check_library(*opt.lib));
    }
    return cr;
  });

  res.footprint_um2 = res.die.core.area();
  for (int i = 0; i < nl.num_instances(); ++i) res.cells += nl.inst(i).dead ? 0 : 1;
  res.buffers = nl.count_buffers();
  res.utilization = m3d::place::utilization(nl, res.die);
  res.total_wl_um = res.routes.total_wl_um;
  res.wns_ps = timing.wns_ps;
  res.timing_met = timing.met();
  res.routed = res.routes.routed;
  res.total_uw = power.total_uw;
  res.cell_uw = power.cell_internal_uw;
  res.net_uw = power.net_switching_uw;
  res.leak_uw = power.leakage_uw;
  res.wire_uw = power.wire_uw;
  res.pin_uw = power.pin_uw;
  res.wire_cap_pf = power.wire_cap_pf;
  res.pin_cap_pf = power.pin_cap_pf;
  res.longest_path_ns = timing.critical_path_ps / 1000.0;
  return res;
}

/// First difference between the composed flow and run_flow's result, or "".
std::string flow_mismatch(const flow::FlowResult& got, const flow::FlowResult& want) {
  const char* style = m3d::tech::to_string(want.style);
  if (m3d::check::netlist_hash(got.netlist) != m3d::check::netlist_hash(want.netlist)) {
    return strf("%s netlist_hash", style);
  }
  if (m3d::check::placement_hash(got.netlist) != m3d::check::placement_hash(want.netlist)) {
    return strf("%s placement_hash", style);
  }
  std::string diff;
  auto field = [&](const char* name, double a, double b) {
    if (diff.empty() && a != b) {
      diff = strf("%s %s: traced %.17g vs run_flow %.17g", style, name, a, b);
    }
  };
  field("footprint_um2", got.footprint_um2, want.footprint_um2);
  field("cells", got.cells, want.cells);
  field("buffers", got.buffers, want.buffers);
  field("utilization", got.utilization, want.utilization);
  field("total_wl_um", got.total_wl_um, want.total_wl_um);
  field("wns_ps", got.wns_ps, want.wns_ps);
  field("timing_met", got.timing_met, want.timing_met);
  field("routed", got.routed, want.routed);
  field("overflow_edges", got.routes.overflow_edges, want.routes.overflow_edges);
  field("total_uw", got.total_uw, want.total_uw);
  field("cell_uw", got.cell_uw, want.cell_uw);
  field("net_uw", got.net_uw, want.net_uw);
  field("leak_uw", got.leak_uw, want.leak_uw);
  field("wire_uw", got.wire_uw, want.wire_uw);
  field("pin_uw", got.pin_uw, want.pin_uw);
  field("wire_cap_pf", got.wire_cap_pf, want.wire_cap_pf);
  field("pin_cap_pf", got.pin_cap_pf, want.pin_cap_pf);
  field("longest_path_ns", got.longest_path_ns, want.longest_path_ns);
  field("check.errors", got.checks.errors(), want.checks.errors());
  return diff;
}

// --- char_lib -------------------------------------------------------------

/// build_library_45nm's cell loop, one cell at a time.
m3d::liberty::Library traced_library(Tracer& tr, m3d::tech::Style style) {
  const m3d::tech::Tech tch(m3d::tech::Node::k45nm, style);
  m3d::liberty::Library lib;
  lib.name = strf("nangatelite_%s_45nm", m3d::tech::to_string(style));
  lib.node = m3d::tech::Node::k45nm;
  lib.style = style;
  lib.vdd_v = 1.1;  // characterize.cpp's kVdd45
  std::vector<std::pair<m3d::cells::Func, int>> jobs;
  for (m3d::cells::Func f : m3d::cells::all_comb_funcs()) {
    for (int d : m3d::cells::drive_options(f)) jobs.emplace_back(f, d);
  }
  for (int d : m3d::cells::drive_options(m3d::cells::Func::kDff)) {
    jobs.emplace_back(m3d::cells::Func::kDff, d);
  }
  for (const auto& [func, drive] : jobs) {
    m3d::cells::CellSpec spec;
    m3d::cells::CellLayout layout;
    tr.call("cells", "cells", [&] {
      spec = m3d::cells::make_spec(func, drive);
      layout = style == m3d::tech::Style::k2D ? m3d::cells::layout_2d(spec, tch)
                                              : m3d::cells::fold_tmi(spec, tch);
    });
    lib.add(tr.call("liberty", "liberty", [&] {
      return m3d::liberty::characterize_cell(spec, layout, lib.vdd_v);
    }));
  }
  return lib;
}

// --- metrics ----------------------------------------------------------------

}  // namespace

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u;
    for (const char* k :
         {"gen.ms", "synth.ms", "place.ms", "cts.ms", "opt.pre_ms", "opt.post_ms",
          "opt.extract_ms", "opt.self_ms", "route.ms", "extract.signoff_ms",
          "sta.signoff_ms", "power.ms", "check.ms", "cells.layout_ms",
          "char.cell_ms.p50", "char.cell_ms.max", "unattributed_ms", "trace.op_ms",
          "trace.untraced_op_ms", "trace.overhead_ms"}) {
      u[k] = "ms";
    }
    for (const char* k :
         {"place.cg_iters", "opt.rounds", "opt.upsized", "opt.extract_calls",
          "sta.runs", "sta.arrivals_propagated", "route.maze_calls",
          "route.maze_batches", "route.overflow_retries", "route.rrr_iters",
          "check.errors", "flow.runs", "char.points", "char.failed_points",
          "spice.sim_context_misses", "spice.sparse_pivot_fallbacks",
          "qor.overflow_edges"}) {
      u[k] = "count";
    }
    for (const char* k : {"route.cpu_per_wall", "route.twopins_per_batch",
                          "route.retry_ratio", "char.cpu_per_wall", "qor.failed_frac"}) {
      u[k] = "ratio";
    }
    u["qor.wirelength_mm"] = "mm";
    u["qor.power_mw"] = "mW";
    u["qor.tmi_power_pct"] = "%";
    for (const char* layer : kLayers) {
      u[strf("exec.tasks.%s", layer)] = "count";
      u[strf("exec.steals.%s", layer)] = "count";
      u[strf("%s.rss_mb", layer)] = "MB";
    }
    return u;
  }();
  return units;
}

namespace {

/// Fills the metrics every workload derives the same way from its spans.
/// `op` is the traced op's root span.
void span_metrics(const std::vector<Span>& spans, int op,
                  std::map<std::string, double>* m) {
  auto& out = *m;
  auto ms_of = [&](const char* name) {
    double t = 0.0;
    for (const Span& s : spans) t += s.name == name ? s.ms() : 0.0;
    return t;
  };
  auto counter = [&](const char* key) {
    double n = 0.0;
    for (const Span& s : spans) {
      const auto it = s.counters.find(key);
      if (it != s.counters.end()) n += it->second;
    }
    return n;
  };
  out["gen.ms"] = ms_of("gen");
  out["synth.ms"] = ms_of("synth");
  out["place.ms"] = ms_of("place");
  out["cts.ms"] = ms_of("cts");
  out["opt.pre_ms"] = ms_of("opt.pre");
  out["opt.post_ms"] = ms_of("opt.post");
  out["opt.extract_ms"] = ms_of("extract.opt");
  out["opt.self_ms"] = out["opt.pre_ms"] + out["opt.post_ms"] - out["opt.extract_ms"];
  out["route.ms"] = ms_of("route");
  out["extract.signoff_ms"] = ms_of("extract.signoff");
  out["sta.signoff_ms"] = ms_of("sta.signoff");
  out["power.ms"] = ms_of("power");
  out["check.ms"] = ms_of("check");
  out["cells.layout_ms"] = ms_of("cells");
  for (const char* key :
       {"place.cg_iters", "opt.rounds", "opt.upsized", "sta.runs",
        "sta.arrivals_propagated", "route.maze_calls", "route.maze_batches",
        "route.overflow_retries", "route.rrr_iters", "spice.sim_context_misses",
        "spice.sparse_pivot_fallbacks"}) {
    out[key] = counter(key);
  }
  double route_cpu = 0.0, route_wall = 0.0;
  std::vector<double> cell_ms;
  double char_cpu = 0.0, char_wall = 0.0;
  for (const Span& s : spans) {
    if (s.name == "extract.opt") out["opt.extract_calls"] += 1.0;
    if (s.name == "route") {
      route_cpu += s.cpu_s;
      route_wall += s.end_s - s.start_s;
    }
    if (s.name == "liberty") {
      cell_ms.push_back(s.ms());
      char_cpu += s.cpu_s;
      char_wall += s.end_s - s.start_s;
    }
  }
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out["route.cpu_per_wall"] = ratio(route_cpu, route_wall);
  out["route.twopins_per_batch"] =
      ratio(out["route.maze_calls"], out["route.maze_batches"]);
  out["route.retry_ratio"] = ratio(out["route.overflow_retries"], counter("route.twopins"));
  out["char.cell_ms.p50"] = median(cell_ms);
  out["char.cell_ms.max"] = cell_ms.empty() ? 0.0 : *std::max_element(cell_ms.begin(), cell_ms.end());
  out["char.cpu_per_wall"] = ratio(char_cpu, char_wall);

  // Self deltas of the pool counters (a span minus its children), summed by
  // layer; RSS is the largest sample taken after a call into the layer.
  std::vector<double> child_tasks(spans.size(), 0.0), child_steals(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    child_tasks[static_cast<size_t>(s.parent)] += s.exec_tasks;
    child_steals[static_cast<size_t>(s.parent)] += s.exec_steals;
  }
  double layer_ms = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer.empty()) continue;
    out["exec.tasks." + s.layer] += s.exec_tasks - child_tasks[i];
    out["exec.steals." + s.layer] += s.exec_steals - child_steals[i];
    double& rss = out[s.layer + ".rss_mb"];
    rss = std::max(rss, s.rss_mb);
    // Top-level layer calls: children of the op or of a grouping span.
    const Span& parent = spans[static_cast<size_t>(s.parent)];
    if (parent.layer.empty()) layer_ms += s.ms();
  }
  out["trace.op_ms"] = spans[static_cast<size_t>(op)].ms();
  out["unattributed_ms"] = out["trace.op_ms"] - layer_ms;
}

}  // namespace

TracedRun run_traced(Workload w, uint64_t seed, const AnalyticLibs& libs) {
  TracedRun run;
  for (const auto& [name, unit] : per_layer_units()) run.metrics[name] = 0.0;
  auto& m = run.metrics;
  Reference ref;
  Tracer tr;
  if (is_flow(w)) {
    const auto cfgs = flow_configs(w, seed, libs);
    const double t0 = wall_s();
    const FlowOp op = run_flow_op(cfgs, libs, in_flight(w));
    m["trace.untraced_op_ms"] = 1000.0 * (wall_s() - t0);
    run.reference = ref.check(op);
    const FlowQor q = flow_qor(op);
    m["flow.runs"] = op.flows;
    m["qor.overflow_edges"] = q.overflow_edges;
    m["qor.wirelength_mm"] = q.wirelength_mm;
    m["qor.power_mw"] = q.power_mw;
    m["qor.tmi_power_pct"] = q.tmi_power_pct;
    const Verdict& v = run.reference;
    m["qor.failed_frac"] =
        static_cast<double>(v.error_checks ? v.items : v.closure_failed) / v.items;

    // Each side re-runs at the clock its reference flow finished at, so a
    // clock relaxation in the reference is reproduced, not re-decided.
    const int root = tr.open("op", "");
    std::vector<std::pair<flow::FlowResult, const flow::FlowResult*>> sides;
    for (size_t i = 0; i < cfgs.size(); ++i) {
      for (const flow::FlowResult* want : {&op.cmps[i].flat, &op.cmps[i].tmi}) {
        flow::FlowOptions o = cfgs[i];
        o.style = want->style;
        o.lib = want->style == m3d::tech::Style::k2D ? &libs.flat : &libs.tmi;
        o.clock_ns = want->clock_ns;
        const int fs = tr.open(strf("flow %s %.2fns", m3d::tech::to_string(o.style), o.clock_ns), "");
        sides.emplace_back(traced_flow(tr, o), want);
        tr.close(fs);
      }
    }
    tr.close(root);
    for (const auto& [got, want] : sides) {
      m["check.errors"] += got.checks.errors();
      if (run.mismatch.empty()) run.mismatch = flow_mismatch(got, *want);
    }
    span_metrics(tr.spans(), root, &m);
  } else {
    const double t0 = wall_s();
    const CharOp op = run_char_op();
    m["trace.untraced_op_ms"] = 1000.0 * (wall_s() - t0);
    run.reference = ref.check(op, libs);
    m["qor.failed_frac"] = static_cast<double>(op.points.failed) / op.points.attempted;

    StderrCapture cap;
    const int root = tr.open("op", "");
    const m3d::liberty::Library flat = traced_library(tr, m3d::tech::Style::k2D);
    const m3d::liberty::Library tmi = traced_library(tr, m3d::tech::Style::kTMI);
    tr.close(root);
    const std::string& log_text = cap.finish();
    forward_other_lines(log_text);
    m["char.failed_points"] = static_cast<double>(failed_points(log_text));
    for (const auto* lib : {&flat, &tmi}) {
      for (const auto& cell : lib->cells()) m["char.points"] += sweep_points(cell);
    }
    using m3d::flow::artifacts::library_fingerprint;
    if (library_fingerprint(flat) != library_fingerprint(op.flat)) {
      run.mismatch = "2D library differs from build_library_45nm";
    } else if (library_fingerprint(tmi) != library_fingerprint(op.tmi)) {
      run.mismatch = "T-MI library differs from build_library_45nm";
    } else if (m["char.failed_points"] != static_cast<double>(op.points.failed)) {
      run.mismatch = "failed sweep points differ from build_library_45nm";
    }
    span_metrics(tr.spans(), root, &m);
  }
  m["trace.overhead_ms"] = m["trace.op_ms"] - m["trace.untraced_op_ms"];
  run.faithful = run.mismatch.empty();

  // Self time per span name, for the human-readable part of the output.
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  std::vector<double> child_ms(tr.spans().size(), 0.0);
  for (const Span& s : tr.spans()) {
    if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.ms();
  }
  for (size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    const std::string key = s.layer.empty() && s.parent >= 0 ? "flow" : s.name;
    by_name[key].first += s.ms();
    by_name[key].second += s.ms() - child_ms[i];
  }
  std::printf("# spans (%zu recorded): name total_ms self_ms\n", tr.spans().size());
  for (const auto& [name, t] : by_name) {
    std::printf("#   %-16s %12.1f %12.1f\n", name.c_str(), t.first, t.second);
  }
  return run;
}

}  // namespace perfbench
