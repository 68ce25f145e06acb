// m3d_repro: reprints the paper's tables and figures from the flow.
//
// Usage:
//   m3d_repro <id>...   run the named experiments, in the order given
//   m3d_repro --all     run every experiment, in registry order
//   m3d_repro --list    print the ids and what each one reproduces
//
// The registry at the bottom of this file is the list of experiments. Each
// prints its table(s) to stdout; flow comparisons also write
// out_figs/run_<bench>_<style>.json reports, and fig3 writes SVGs to
// out_figs/. Characterized libraries are cached in $M3D_LIBCACHE (default
// ./.libcache), the pool size is $M3D_THREADS, and $M3D_STORE lets flows
// reuse stage artifacts across processes (see src/store).
//
// The base comparison of a benchmark at a node -- preset(bench, node) at
// its auto-found clock -- feeds most flow tables. It is memoised in the
// process, so `--all` runs each base comparison once.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "cells/layout.hpp"
#include "cts/cts.hpp"
#include "exec/exec.hpp"
#include "extract/extract.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "gen/gen.hpp"
#include "gmi/gmi.hpp"
#include "liberty/characterize.hpp"
#include "liberty/library.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "synth/synth.hpp"
#include "tech/scaling.hpp"
#include "tech/tech.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"
#include "util/svg.hpp"
#include "util/table.hpp"

using namespace m3d;
using util::strf;

namespace {

// --- Shared infrastructure ------------------------------------------------

/// The four characterized libraries (45nm measured, 7nm ITRS-scaled).
/// Characterization runs once and is cached under $M3D_LIBCACHE or
/// ./.libcache.
struct Libs {
  liberty::Library flat45, tmi45, flat7, tmi7;

  const liberty::Library& of(tech::Node node, tech::Style style) const {
    const bool folded = style != tech::Style::k2D;
    if (node == tech::Node::k45nm) return folded ? tmi45 : flat45;
    return folded ? tmi7 : flat7;
  }
};

const Libs& libs() {
  static const Libs instance = [] {
    const char* env = std::getenv("M3D_LIBCACHE");
    const std::string dir = env != nullptr ? env : ".libcache";
    ::mkdir(dir.c_str(), 0755);
    util::info("loading/characterizing cell libraries (cached in " + dir +
               ") ...");
    Libs l;
    l.flat45 = liberty::load_or_build_library(tech::Style::k2D, dir);
    l.tmi45 = liberty::load_or_build_library(tech::Style::kTMI, dir);
    l.flat7 = liberty::scale_to_7nm(l.flat45);
    l.tmi7 = liberty::scale_to_7nm(l.tmi45);
    return l;
  }();
  return instance;
}

/// FlowOptions preset for one of the five paper benchmarks at a node.
flow::FlowOptions preset(gen::Bench bench, tech::Node node) {
  flow::FlowOptions o;
  o.bench = bench;
  o.node = node;
  o.scale_shift = flow::default_scale_shift(bench);
  o.target_util = flow::default_utilization(bench);
  o.lib = &libs().of(node, tech::Style::k2D);
  // Paper-table runs carry the full invariant battery: a violation in a
  // published number should be loud, and the check stage is a rounding
  // error next to the flow itself.
  o.check_level = check::Level::kFull;
  return o;
}

/// "-41.7%" formatting helper.
std::string pct_str(double v3, double v2) {
  if (v2 == 0.0) return "n/a";
  return strf("%+.1f%%", 100.0 * (v3 / v2 - 1.0));
}

/// Writes the out_figs/run_<bench>_<style>.json reports for both sides of a
/// comparison. Concurrent comparisons can share report filenames (the fig11
/// activity sweep reruns the same bench), so the writes are serialized.
void write_run_reports(const flow::CompareResult& r) {
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  ::mkdir("out_figs", 0755);
  for (const flow::FlowResult* res : {&r.flat, &r.tmi}) {
    const std::string path =
        "out_figs/" + report::report_filename(res->bench_name,
                                              tech::to_string(res->style));
    if (report::write_json(*res, path)) {
      util::info("wrote run report " + path);
    } else {
      util::warn("could not write run report " + path);
    }
  }
}

/// Runs an iso-performance comparison on the characterized libraries and
/// writes its run reports. Tables read only the scalar results, so the
/// netlists and routes are dropped before returning.
flow::CompareResult compare(const flow::FlowOptions& o) {
  const auto& l2 = libs().of(o.node, tech::Style::k2D);
  const auto& l3 = libs().of(
      o.node, o.style == tech::Style::k2D ? tech::Style::kTMI : o.style);
  flow::CompareResult r = flow::run_iso_comparison(o, l2, l3);
  write_run_reports(r);
  for (flow::FlowResult* side : {&r.flat, &r.tmi}) {
    side->netlist = circuit::Netlist();
    side->routes = route::RouteResult();
  }
  return r;
}

/// compare() for independent configurations, fanned out across the exec
/// pool. Results come back in input order.
std::vector<flow::CompareResult> compare_all(
    const std::vector<flow::FlowOptions>& opts) {
  std::vector<flow::CompareResult> out(opts.size());
  exec::TaskGroup group(exec::default_pool());
  for (size_t i = 0; i < opts.size(); ++i) {
    group.run([&opts, &out, i] { out[i] = compare(opts[i]); });
  }
  group.wait();
  return out;
}

/// The base comparisons preset(bench, node) of `benches`, in order. Missing
/// ones run in parallel; all are memoised for the rest of the process.
std::vector<const flow::CompareResult*> bases(
    tech::Node node, const std::vector<gen::Bench>& benches) {
  static std::map<std::pair<tech::Node, gen::Bench>, flow::CompareResult> memo;
  std::vector<gen::Bench> missing;
  std::vector<flow::FlowOptions> opts;
  for (gen::Bench b : benches) {
    if (memo.count({node, b}) == 0) {
      missing.push_back(b);
      opts.push_back(preset(b, node));
    }
  }
  std::vector<flow::CompareResult> fresh = compare_all(opts);
  for (size_t i = 0; i < missing.size(); ++i) {
    memo.emplace(std::make_pair(node, missing[i]), std::move(fresh[i]));
  }
  std::vector<const flow::CompareResult*> out;
  for (gen::Bench b : benches) out.push_back(&memo.at({node, b}));
  return out;
}

const flow::CompareResult& base(gen::Bench bench, tech::Node node) {
  return *bases(node, {bench}).front();
}

/// preset(bench, node) pinned to the base comparison's clock.
flow::FlowOptions at_base_clock(gen::Bench bench, tech::Node node) {
  flow::FlowOptions o = preset(bench, node);
  o.clock_ns = base(bench, node).flat.clock_ns;
  return o;
}

// --- Cell and technology tables -------------------------------------------

void table1() {
  struct Row {
    cells::Func func;
    // Paper-reported values for reference.
    double pr2d, pr3d, pc2d, pc3d, pc3dc;
  };
  const Row rows[] = {
      {cells::Func::kInv, 0.186, 0.107, 0.363, 0.368, 0.349},
      {cells::Func::kNand2, 0.372, 0.237, 0.561, 0.586, 0.547},
      {cells::Func::kMux2, 1.133, 0.975, 1.823, 1.938, 1.796},
      {cells::Func::kDff, 2.876, 3.045, 4.108, 5.101, 4.740},
  };
  const tech::Tech t2(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);

  util::Table table(
      "Table 1: cell internal parasitic RC (R in kOhm, C in fF).\n"
      "'paper' columns are the values reported in the paper; 3D-c models the\n"
      "top-tier silicon as a conductor.");
  table.set_header({"cell", "R 2D", "R 3D", "C 2D", "C 3D", "C 3D-c",
                    "paper R2D", "paper R3D", "paper C2D", "paper C3D",
                    "paper C3D-c"});
  for (const Row& row : rows) {
    const cells::CellSpec spec = cells::make_spec(row.func, 1);
    const cells::CellLayout l2 = cells::layout_2d(spec, t2);
    const cells::CellLayout l3 = cells::fold_tmi(spec, t3);
    table.add_row({cells::to_string(row.func),
                   strf("%.3f", l2.total_r_kohm()),
                   strf("%.3f", l3.total_r_kohm()),
                   strf("%.3f", l2.total_c_ff(cells::SiliconModel::kDielectric)),
                   strf("%.3f", l3.total_c_ff(cells::SiliconModel::kDielectric)),
                   strf("%.3f", l3.total_c_ff(cells::SiliconModel::kConductor)),
                   strf("%.3f", row.pr2d), strf("%.3f", row.pr3d),
                   strf("%.3f", row.pc2d), strf("%.3f", row.pc3d),
                   strf("%.3f", row.pc3dc)});
  }
  table.print();
  std::printf(
      "\nKey claims reproduced: folding lowers R for simple cells (shorter\n"
      "poly/metal), raises both R and C for the DFF (complex internal\n"
      "connections), and C(3D-c) < C(2D) < C(3D) for simple cells.\n");
}

double avg_delay(const liberty::LibCell& c, double slew, double load) {
  double sum = 0;
  int n = 0;
  for (const auto& arc : c.arcs) {
    sum += arc.worst_delay(slew, load);
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

double avg_energy(const liberty::LibCell& c, double slew, double load) {
  double sum = 0;
  int n = 0;
  for (const auto& arc : c.arcs) {
    sum += arc.avg_energy(slew, load);
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

void table2() {
  struct Corner {
    const char* name;
    double slew, dff_slew, load;
  };
  const tech::Tech t2(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);
  const Corner corners[] = {{"fast", 7.5, 5.0, 0.8},
                            {"medium", 37.5, 28.1, 3.2},
                            {"slow", 150.0, 112.5, 12.8}};
  const cells::Func funcs[] = {cells::Func::kInv, cells::Func::kNand2,
                               cells::Func::kMux2, cells::Func::kDff};

  // Paper Table 2 (delay ps / power fJ) for reference: {2D, 3D} per corner.
  const double paper_delay[4][3][2] = {
      {{17.2, 16.9}, {51.1, 50.8}, {188.3, 188.0}},
      {{21.2, 20.9}, {56.2, 55.9}, {195.9, 195.5}},
      {{59.8, 58.2}, {97.0, 95.3}, {215.1, 212.5}},
      {{108.8, 113.4}, {142.6, 147.0}, {237.4, 243.3}}};
  const double paper_energy[4][3][2] = {
      {{0.383, 0.351}, {0.362, 0.343}, {0.449, 0.431}},
      {{0.616, 0.583}, {0.604, 0.581}, {0.698, 0.675}},
      {{2.113, 2.060}, {2.239, 2.168}, {2.555, 2.487}},
      {{6.341, 6.735}, {6.358, 6.756}, {7.303, 7.659}}};

  util::Table table(
      "Table 2: cell delay (ps) and internal energy (fJ), 2D vs 3D,\n"
      "SPICE-characterized at the paper's input-slew / load corners.\n"
      "(3D/2D) ratio in parentheses; paper ratios alongside.");
  table.set_header({"corner", "cell", "d 2D", "d 3D (ratio)", "e 2D",
                    "e 3D (ratio)", "paper d ratio", "paper e ratio"});
  for (int ci = 0; ci < 3; ++ci) {
    const Corner& corner = corners[ci];
    for (int fi = 0; fi < 4; ++fi) {
      const cells::CellSpec spec = cells::make_spec(funcs[fi], 1);
      const liberty::LibCell c2 =
          liberty::characterize_cell(spec, cells::layout_2d(spec, t2), 1.1);
      const liberty::LibCell c3 =
          liberty::characterize_cell(spec, cells::fold_tmi(spec, t3), 1.1);
      const double slew = spec.sequential() ? corner.dff_slew : corner.slew;
      const double d2 = avg_delay(c2, slew, corner.load);
      const double d3 = avg_delay(c3, slew, corner.load);
      const double e2 = avg_energy(c2, slew, corner.load);
      const double e3 = avg_energy(c3, slew, corner.load);
      table.add_row(
          {corner.name, cells::to_string(funcs[fi]), strf("%.1f", d2),
           strf("%.1f (%.1f%%)", d3, 100.0 * d3 / d2), strf("%.3f", e2),
           strf("%.3f (%.1f%%)", e3, 100.0 * e3 / e2),
           strf("%.1f%%",
                100.0 * paper_delay[fi][ci][1] / paper_delay[fi][ci][0]),
           strf("%.1f%%",
                100.0 * paper_energy[fi][ci][1] / paper_energy[fi][ci][0])});
    }
    if (ci + 1 < 3) table.add_separator();
  }
  table.print();
  std::printf(
      "\nKey claims reproduced: 3D INV/NAND2 slightly better than 2D, DFF a\n"
      "few percent worse, and the 3D/2D gap narrows from fast to slow\n"
      "corners.\n");
}

void table3() {
  {
    util::Table t(
        "Table 3: metal layer summary, 45nm (nm units; paper values exactly).");
    t.set_header({"level", "2D layers", "3D layers", "width", "spacing",
                  "thickness"});
    t.add_row({"global", "M7-8", "M10-11", "400", "400", "800"});
    t.add_row({"intermediate", "M4-6", "M7-9", "140", "140", "280"});
    t.add_row({"local", "M2-3", "M2-6", "70", "70", "140"});
    t.add_row({"M1", "M1", "MB1,M1", "70", "65", "130"});
    t.print();
  }
  std::printf("\nFig 9: metal stack diagrams (as built by tech::build_stack):\n");
  for (tech::Style style :
       {tech::Style::k2D, tech::Style::kTMI, tech::Style::kTMIPlusM}) {
    const tech::Tech t(tech::Node::k45nm, style);
    std::printf("  %-7s:", tech::to_string(style));
    for (const auto& layer : t.stack().layers) {
      std::printf(" %s", layer.name.c_str());
    }
    std::printf("   (local %d, intermediate %d, global %d)\n",
                t.stack().count_of(tech::LayerLevel::kLocal),
                t.stack().count_of(tech::LayerLevel::kIntermediate),
                t.stack().count_of(tech::LayerLevel::kGlobal));
  }
  {
    std::printf("\nPer-layer unit RC from the capTable model:\n");
    util::Table t("");
    t.set_header({"style", "layer", "level", "dir", "pitch um", "R ohm/um",
                  "C fF/um"});
    for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
      const tech::Tech tech(tech::Node::k45nm, style);
      for (const auto& layer : tech.stack().layers) {
        t.add_row({tech::to_string(style), layer.name,
                   tech::to_string(layer.level), layer.horizontal ? "H" : "V",
                   strf("%.3f", layer.pitch_um()),
                   strf("%.3f", layer.unit_r_kohm * 1000.0),
                   strf("%.3f", layer.unit_c_ff)});
      }
      t.add_separator();
    }
    t.print();
  }
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);
  const auto& miv = t3.cut(t3.miv_cut_index());
  std::printf("\nMIV: R = %.2f Ohm, C = %.3f fF (\"almost negligible\").\n",
              miv.r_kohm * 1000.0, miv.c_ff);
}

void table6() {
  const tech::NodeParams p45 = tech::make_node_params(tech::Node::k45nm);
  const tech::NodeParams p7 = tech::make_node_params(tech::Node::k7nm);
  {
    util::Table t("Table 6: comparison of the 45nm and 7nm node setup.");
    t.set_header({"parameter", "45nm", "7nm"});
    t.add_row({"transistor", p45.transistor_type, p7.transistor_type});
    t.add_row({"VDD (V)", strf("%.1f", p45.vdd_v), strf("%.1f", p7.vdd_v)});
    t.add_row({"transistor length (drawn, nm)", strf("%.0f", p45.lgate_drawn_nm),
               strf("%.0f", p7.lgate_drawn_nm)});
    t.add_row({"BEOL ILD k", strf("%.1f", p45.ild_k), strf("%.1f", p7.ild_k)});
    t.add_row({"M2 width (nm)", strf("%.0f", p45.m2_width_nm),
               strf("%.1f", p7.m2_width_nm)});
    t.add_row({"MIV diameter (nm)", strf("%.0f", p45.miv_diameter_nm),
               strf("%.1f", p7.miv_diameter_nm)});
    t.add_row({"ILD thickness (nm)", strf("%.0f", p45.ild_thickness_nm),
               strf("%.0f", p7.ild_thickness_nm)});
    t.add_row({"standard cell height (um)", strf("%.3f", p45.cell_height_um),
               strf("%.3f", p7.cell_height_um)});
    t.print();
  }
  {
    util::Table t("\nTable 10: ITRS projection summary.");
    t.set_header({"parameter", "45nm (2010)", "7nm (2025)"});
    t.add_row({"device type", "bulk Si", "multi-gate"});
    t.add_row({"NMOS drive (uA/um)", strf("%.0f", p45.nmos_drive_ua_um),
               strf("%.0f", p7.nmos_drive_ua_um)});
    t.add_row({"Cu eff. resistivity (uOhm*cm, local)",
               strf("%.2f", p45.cu_resistivity_uohm_cm),
               strf("%.2f", p7.cu_resistivity_uohm_cm)});
    t.print();
  }
  {
    const tech::Tech t45(tech::Node::k45nm, tech::Style::k2D);
    const tech::Tech t7(tech::Node::k7nm, tech::Style::k2D);
    const int m2a = t45.stack().find("M2"), m8a = t45.stack().find("M8");
    const int m2b = t7.stack().find("M2"), m8b = t7.stack().find("M8");
    util::Table t(
        "\nSection 5: unit-length interconnect RC (paper: M2 3.57 / 638\n"
        "Ohm/um, M8 0.188 / 2.650 Ohm/um; C 0.106 / 0.153 and 0.100 / 0.095\n"
        "fF/um).");
    t.set_header({"layer", "R 45nm (Ohm/um)", "R 7nm", "C 45nm (fF/um)", "C 7nm"});
    t.add_row({"M2 (local)", strf("%.2f", t45.unit_r_kohm(m2a) * 1e3),
               strf("%.1f", t7.unit_r_kohm(m2b) * 1e3),
               strf("%.3f", t45.unit_c_ff(m2a)), strf("%.3f", t7.unit_c_ff(m2b))});
    t.add_row({"M8 (global)", strf("%.3f", t45.unit_r_kohm(m8a) * 1e3),
               strf("%.3f", t7.unit_r_kohm(m8b) * 1e3),
               strf("%.3f", t45.unit_c_ff(m8a)), strf("%.3f", t7.unit_c_ff(m8b))});
    t.print();
  }
  {
    const tech::ScaleFactors f = tech::itrs_7nm_factors();
    util::Table t("\n45nm -> 7nm library scaling factors (paper S3).");
    t.set_header({"quantity", "factor"});
    t.add_row({"geometry", strf("%.3f", f.geometry)});
    t.add_row({"cell input cap", strf("%.3f", f.cell_input_cap)});
    t.add_row({"cell delay", strf("%.3f", f.cell_delay)});
    t.add_row({"output slew", strf("%.3f", f.output_slew)});
    t.add_row({"cell power", strf("%.3f", f.cell_power)});
    t.add_row({"leakage", strf("%.3f", f.leakage)});
    t.add_row({"internal R", strf("%.1f", f.internal_r)});
    t.add_row({"internal C", strf("%.3f", f.internal_c)});
    t.print();
  }
}

void table11() {
  const auto& l45 = libs().of(tech::Node::k45nm, tech::Style::k2D);
  const auto& l7 = libs().of(tech::Node::k7nm, tech::Style::k2D);
  util::Table t(
      "Table 11: 7nm cell characterization (avg over rise/fall at input\n"
      "slew 19ps / load 3.2 fF at 45nm; scaled corner at 7nm). Paper rows\n"
      "for reference.");
  t.set_header({"quantity", "cell", "45nm", "7nm", "paper 45nm", "paper 7nm"});
  struct P {
    const char* cell;
    double cap45, cap7, d45, d7, sl45, sl7, e45, e7, lk45, lk7;
  };
  const P paper[] = {
      {"INV", 0.463, 0.125, 44.27, 25.56, 31.35, 15.13, 0.446, 0.020, 2844, 2583},
      {"NAND2", 0.523, 0.082, 49.24, 30.50, 35.89, 19.29, 0.680, 0.020, 4962, 2906},
      {"DFF", 0.877, 0.097, 124.70, 27.07, 34.55, 8.25, 3.425, 0.604, 42965, 23241}};
  const char* names[] = {"INV_X1", "NAND2_X1", "DFF_X1"};
  for (int i = 0; i < 3; ++i) {
    const auto* c45 = l45.find(names[i]);
    const auto* c7 = l7.find(names[i]);
    const double slew45 = 19.0, load45 = 3.2;
    const double slew7 = slew45 * 0.42, load7 = load45 * 0.179;
    const auto& a45 = c45->arcs[0];
    const auto& a7 = c7->arcs[0];
    t.add_row({"input cap (fF)", names[i], strf("%.3f", c45->max_input_cap_ff()),
               strf("%.3f", c7->max_input_cap_ff()),
               strf("%.3f", paper[i].cap45), strf("%.3f", paper[i].cap7)});
    t.add_row({"cell delay (ps)", names[i],
               strf("%.2f", a45.worst_delay(slew45, load45)),
               strf("%.2f", a7.worst_delay(slew7, load7)),
               strf("%.2f", paper[i].d45), strf("%.2f", paper[i].d7)});
    t.add_row({"output slew (ps)", names[i],
               strf("%.2f", a45.worst_slew(slew45, load45)),
               strf("%.2f", a7.worst_slew(slew7, load7)),
               strf("%.2f", paper[i].sl45), strf("%.2f", paper[i].sl7)});
    t.add_row({"cell energy (fJ)", names[i],
               strf("%.3f", a45.avg_energy(slew45, load45)),
               strf("%.3f", a7.avg_energy(slew7, load7)),
               strf("%.3f", paper[i].e45), strf("%.3f", paper[i].e7)});
    t.add_row({"leakage (pW)", names[i], strf("%.0f", c45->leakage_uw * 1e6),
               strf("%.0f", c7->leakage_uw * 1e6), strf("%.0f", paper[i].lk45),
               strf("%.0f", paper[i].lk7)});
    t.add_separator();
  }
  t.print();
}

// --- Full-flow comparison tables ------------------------------------------

/// Paper %-difference row of Tables 4 and 7 (T-MI over 2D).
struct PaperPct {
  double fp, wl, p, cell, net, leak;
};

/// Tables 4 and 7: %-difference of T-MI over 2D for the five benchmarks at
/// one node, each row followed by the paper's. The clock column prints
/// `clk_digits` decimals.
void pct_table(tech::Node node, const char* title, const PaperPct (&paper)[5],
               int clk_digits) {
  util::Table t(title);
  t.set_header({"circuit", "footprint", "wirelen", "total pwr", "cell pwr",
                "net pwr", "leakage", "clk ns", "met"});
  const std::vector<gen::Bench> benches = gen::all_benches();
  const auto results = bases(node, benches);
  for (size_t i = 0; i < benches.size(); ++i) {
    const flow::CompareResult& c = *results[i];
    t.add_row({gen::to_string(benches[i]),
               pct_str(c.tmi.footprint_um2, c.flat.footprint_um2),
               pct_str(c.tmi.total_wl_um, c.flat.total_wl_um),
               pct_str(c.tmi.total_uw, c.flat.total_uw),
               pct_str(c.tmi.cell_uw, c.flat.cell_uw),
               pct_str(c.tmi.net_uw, c.flat.net_uw),
               pct_str(c.tmi.leak_uw, c.flat.leak_uw),
               strf("%.*f", clk_digits, c.flat.clock_ns),
               c.flat.timing_met && c.tmi.timing_met ? "yes" : "NO"});
    const PaperPct& p = paper[i];
    t.add_row({"  (paper)", strf("%+.1f%%", p.fp), strf("%+.1f%%", p.wl),
               strf("%+.1f%%", p.p), strf("%+.1f%%", p.cell),
               strf("%+.1f%%", p.net), strf("%+.1f%%", p.leak), "-", "-"});
    t.add_separator();
  }
  t.print();
}

void table4() {
  const PaperPct paper[] = {{-41.7, -26.3, -14.5, -9.4, -19.5, -11.1},
                            {-42.4, -23.6, -10.9, -7.6, -13.9, -9.5},
                            {-43.2, -33.6, -32.1, -12.8, -39.2, -21.7},
                            {-40.9, -21.5, -4.1, -1.6, -7.7, -1.4},
                            {-43.4, -28.4, -17.5, -10.7, -22.2, -12.9}};
  pct_table(tech::Node::k45nm,
            "Table 4: 45nm layout results — %% difference of T-MI over 2D\n"
            "(iso-performance; timing closed on both designs). Paper values in\n"
            "the second line of each row.",
            paper, 2);
  std::printf(
      "\nKey claims reproduced: ~40%% footprint reduction, 20-30%% shorter\n"
      "wires, largest power benefit on the wire-dominated LDPC, smallest on\n"
      "the pin-cap-dominated DES. (Benchmarks run at reduced scale — see\n"
      "EXPERIMENTS.md for the scale note.)\n");
}

void table7() {
  const PaperPct paper[] = {{-47.0, -34.2, -37.3, -32.4, -44.4, -21.0},
                            {-62.0, -47.8, -19.8, -10.3, -28.4, -28.5},
                            {-42.9, -27.7, -19.1, -3.7, -26.6, -3.5},
                            {-40.8, -21.9, -3.4, -1.3, -7.3, -3.0},
                            {-44.6, -23.0, -17.8, -14.1, -23.0, -2.4}};
  pct_table(tech::Node::k7nm,
            "Table 7: 7nm layout results — %% difference of T-MI over 2D.\n"
            "Paper values in the second line of each row.",
            paper, 3);
  std::printf(
      "\nKey claim reproduced: the power benefit persists at 7nm, with the\n"
      "same circuit-character ordering; per-circuit magnitudes shift as the\n"
      "local layers become very resistive (paper Section 6).\n");
}

void table5() {
  util::Table t(
      "Table 5: design results vs previous works (paper constants for\n"
      "[2] CELONCEL and [7] Lee et al. ICCAD'12; power scales differ by\n"
      "design size — compare the reduction percentages, not absolutes).");
  t.set_header({"circuit", "design", "WL (m)", "longest path (ns)",
                "total power (mW)", "power delta"});
  struct Lit {
    const char* name;
    double wl2, wl3, d2, d3, p2, p3;
  };
  auto add_lit = [&](const Lit& l) {
    t.add_row({"", std::string(l.name) + "-2D", strf("%.3f", l.wl2),
               strf("%.3f", l.d2), strf("%.1f", l.p2), "-"});
    t.add_row({"", std::string(l.name) + "-3D", strf("%.3f", l.wl3),
               strf("%.3f", l.d3), strf("%.1f", l.p3),
               strf("%+.1f%%", 100.0 * (l.p3 / l.p2 - 1.0))});
  };

  struct Row {
    gen::Bench bench;
    std::vector<Lit> lits;
  };
  const std::vector<Row> rows = {
      {gen::Bench::kAes,
       {{"paper", 0.260, 0.199, 0.770, 0.775, 13.69, 12.20},
        {"[7]", 0.271, 0.214, 1.310, 1.165, 13.7, 12.8}}},
      {gen::Bench::kLdpc,
       {{"paper", 3.806, 2.528, 2.400, 2.388, 54.79, 37.22},
        {"[2]", 1.83, 1.60, 2.461, 2.421, 1554, 1461}}},
      {gen::Bench::kDes,
       {{"paper", 0.611, 0.479, 0.976, 0.968, 63.88, 61.24},
        {"[2]", 0.671, 0.581, 1.132, 0.971, 620.2, 608.2},
        {"[7]", 0.849, 0.682, 1.086, 0.923, 134.9, 130.7}}},
  };
  for (const Row& row : rows) {
    const flow::CompareResult& c = base(row.bench, tech::Node::k45nm);
    t.add_row({gen::to_string(row.bench), "ours-2D",
               strf("%.6f", c.flat.total_wl_um * 1e-6),
               strf("%.3f", c.flat.longest_path_ns),
               strf("%.2f", c.flat.total_uw / 1000.0), "-"});
    t.add_row({"", "ours-3D", strf("%.6f", c.tmi.total_wl_um * 1e-6),
               strf("%.3f", c.tmi.longest_path_ns),
               strf("%.2f", c.tmi.total_uw / 1000.0),
               pct_str(c.tmi.total_uw, c.flat.total_uw)});
    for (const Lit& l : row.lits) add_lit(l);
    t.add_separator();
  }
  t.print();
  std::printf(
      "\nKey claim reproduced: transistor-level monolithic integration\n"
      "(ours/paper) reaches larger wirelength reduction than the\n"
      "gate-level/earlier flows, and every study finds DES's power benefit\n"
      "small (2-6%%).\n");
}

/// The header and row shape of Tables 8, 9 and 17: absolute WL and power
/// per design, plus a power delta against a reference design.
std::vector<std::string> power_header(const char* delta_col) {
  return {"design", "WL mm", "total uW", "cell uW", "net uW", "leak uW",
          delta_col};
}

void add_power_row(util::Table* t, const std::string& name,
                   const flow::FlowResult& m, const std::string& delta) {
  t->add_row({name, strf("%.3f", m.total_wl_um / 1000.0),
              strf("%.2f", m.total_uw), strf("%.2f", m.cell_uw),
              strf("%.2f", m.net_uw), strf("%.3f", m.leak_uw), delta});
}

liberty::Library scale_pin_caps(const liberty::Library& in, double factor) {
  liberty::Library rebuilt;
  rebuilt.name = in.name + strf("_p%.0f", 100.0 * (1.0 - factor));
  rebuilt.node = in.node;
  rebuilt.style = in.style;
  rebuilt.vdd_v = in.vdd_v;
  for (liberty::LibCell c : in.cells()) {
    for (auto& [pin, cap] : c.pin_cap_ff) cap *= factor;
    rebuilt.add(std::move(c));
  }
  return rebuilt;
}

void table8() {
  util::Table t(
      "Table 8: impact of lower cell pin cap at 7nm on DES. '-pNN' = NN%%\n"
      "reduced pin caps. Paper: the T-MI power benefit does *not* grow as\n"
      "pin caps shrink (-3.4%% -> -1.8/-2.7/-2.3%%), because the cell power\n"
      "then dominates.");
  t.set_header(power_header("power delta"));
  const double factors[] = {1.0, 0.8, 0.6, 0.4};
  const char* names[] = {"DES", "DES-p20", "DES-p40", "DES-p60"};
  for (int i = 0; i < 4; ++i) {
    const liberty::Library lib2 =
        scale_pin_caps(libs().of(tech::Node::k7nm, tech::Style::k2D), factors[i]);
    const liberty::Library lib3 =
        scale_pin_caps(libs().of(tech::Node::k7nm, tech::Style::kTMI), factors[i]);
    flow::FlowOptions o = preset(gen::Bench::kDes, tech::Node::k7nm);
    o.lib = &lib2;
    // Modified libraries: run on them directly rather than through compare().
    const flow::CompareResult r = flow::run_iso_comparison(o, lib2, lib3);
    add_power_row(&t, std::string(names[i]) + "-2D", r.flat, "-");
    add_power_row(&t, std::string(names[i]) + "-3D", r.tmi,
                  pct_str(r.tmi.total_uw, r.flat.total_uw));
    t.add_separator();
  }
  t.print();
}

void table9() {
  util::Table t(
      "Table 9: lower metal resistivity at 7nm, M256. Paper: -17.8%% power\n"
      "delta in both cases — lower resistivity does not shrink the T-MI\n"
      "benefit.");
  t.set_header(power_header("power delta"));
  const double scales[] = {1.0, 0.5};
  const char* names[] = {"M256", "M256-m"};
  for (int i = 0; i < 2; ++i) {
    flow::FlowOptions o = preset(gen::Bench::kM256, tech::Node::k7nm);
    o.resistivity_scale = scales[i];
    const flow::CompareResult c = compare(o);
    add_power_row(&t, std::string(names[i]) + "-2D", c.flat, "-");
    add_power_row(&t, std::string(names[i]) + "-3D", c.tmi,
                  pct_str(c.tmi.total_uw, c.flat.total_uw));
    t.add_separator();
  }
  t.print();
}

void table12() {
  for (tech::Node node : {tech::Node::k45nm, tech::Node::k7nm}) {
    util::Table t(strf(
        "Table 12 (%s node): benchmark circuits and synthesis results.\n"
        "Target clock = our tightest closable 2D clock (the paper picks\n"
        "its own absolute targets; sizes are at our reduced default scale).",
        tech::to_string(node)));
    t.set_header({"circuit", "target clk ns", "#cells", "cell area um2",
                  "#nets", "avg fanout", "#DFF"});
    const std::vector<gen::Bench> benches = gen::all_benches();
    const auto results = bases(node, benches);
    for (size_t bi = 0; bi < benches.size(); ++bi) {
      // Reuse the table 4/7 clock, then synthesize standalone for the
      // statistics.
      const gen::Bench b = benches[bi];
      const flow::FlowResult& flat = results[bi]->flat;
      const flow::FlowOptions o = preset(b, node);
      gen::GenOptions go;
      go.scale_shift = o.scale_shift;
      circuit::Netlist nl = gen::make_benchmark(b, go);
      const tech::Tech tch(node, tech::Style::k2D);
      synth::SynthOptions so;
      so.clock_ns = flat.clock_ns;
      synth::synthesize(
          &nl, *o.lib, synth::make_statistical_wlm(flat.footprint_um2, tch), so);
      int live = 0;
      for (int i = 0; i < nl.num_instances(); ++i) {
        if (!nl.inst(i).dead) ++live;
      }
      t.add_row({gen::to_string(b), strf("%.2f", flat.clock_ns),
                 strf("%d", live), strf("%.1f", nl.total_cell_area_um2()),
                 strf("%d", nl.num_signal_nets()),
                 strf("%.2f", nl.average_fanout()),
                 strf("%d", nl.count_sequential())});
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "Paper sizes for reference (45nm): FPU 9.7k / AES 13.9k / LDPC 38.3k /\n"
      "DES 51.2k / M256 202.9k cells, average fanout 2.23-2.40.\n");
}

/// Tables 13 and 14: detailed 2D and T-MI results per benchmark, with the
/// percent of 2D in parentheses. The 7nm table prints one more decimal on
/// its small absolute values (`extra_digits`).
void detail_table(tech::Node node, const char* title, int extra_digits) {
  const int d = extra_digits;
  util::Table t(title);
  t.set_header({"circuit", "type", "footprint um2", "#cells", "#buffers",
                "util %", "WL mm", "WNS ps", "total uW", "cell uW", "net uW",
                "leak uW"});
  const std::vector<gen::Bench> benches = gen::all_benches();
  const auto results = bases(node, benches);
  for (size_t bi = 0; bi < benches.size(); ++bi) {
    const flow::CompareResult& c = *results[bi];
    auto row = [&](const char* type, const flow::FlowResult& m,
                   const flow::FlowResult& base) {
      t.add_row({gen::to_string(benches[bi]), type,
                 strf("%.*f (%.1f)", d, m.footprint_um2,
                      100.0 * m.footprint_um2 / base.footprint_um2),
                 strf("%d", m.cells),
                 strf("%d (%.1f)", m.buffers,
                      base.buffers > 0 ? 100.0 * m.buffers / base.buffers
                                       : 100.0),
                 strf("%.1f", 100.0 * m.utilization),
                 strf("%.*f (%.1f)", 3 + d, m.total_wl_um / 1000.0,
                      100.0 * m.total_wl_um / base.total_wl_um),
                 strf("%+.0f", m.wns_ps),
                 strf("%.*f (%.1f)", 1 + d, m.total_uw,
                      100.0 * m.total_uw / base.total_uw),
                 strf("%.*f", 1 + d, m.cell_uw), strf("%.*f", 1 + d, m.net_uw),
                 strf("%.*f", 2 + d, m.leak_uw)});
    };
    row("2D", c.flat, c.flat);
    row("3D", c.tmi, c.flat);
    t.add_separator();
  }
  t.print();
}

void table13() {
  detail_table(tech::Node::k45nm,
               "Table 13: detailed layout results, 45nm (percent-of-2D in parens;\n"
               "positive WNS = timing met).",
               0);
}

void table14() {
  detail_table(tech::Node::k7nm,
               "Table 14: detailed layout results, 7nm (percent-of-2D in parens).",
               1);
}

/// Table 15 and S5: the T-MI side of two comparisons at the base clock, one
/// as preset and one with `turn_off` applied, as a row pair with the deltas
/// of the second against the first.
void add_with_without(util::Table* t, gen::Bench bench,
                      const std::function<void(flow::FlowOptions*)>& turn_off,
                      const std::string& with_name,
                      const std::string& without_name) {
  const flow::FlowOptions with = at_base_clock(bench, tech::Node::k45nm);
  flow::FlowOptions without = with;
  turn_off(&without);
  const flow::FlowResult cw = compare(with).tmi;
  const flow::FlowResult cn = compare(without).tmi;
  t->add_row({with_name, strf("%.3f", cw.total_wl_um / 1000.0),
              strf("%+.0f", cw.wns_ps), strf("%.1f", cw.total_uw), "-", "-"});
  t->add_row({without_name, strf("%.3f", cn.total_wl_um / 1000.0),
              strf("%+.0f", cn.wns_ps), strf("%.1f", cn.total_uw),
              pct_str(cn.total_wl_um, cw.total_wl_um),
              pct_str(cn.total_uw, cw.total_uw)});
}

std::vector<std::string> with_without_header(const char* first_col) {
  return {first_col, "WL mm", "WNS ps", "total uW", "delta WL", "delta pwr"};
}

void table15() {
  util::Table t(
      "Table 15: T-MI designs with ('-3D') and without ('-3D-n') the T-MI\n"
      "WLM. Paper: negligible for FPU/AES/DES, up to +10%% WL and power for\n"
      "LDPC and +4-6%% for M256 without it.");
  t.set_header(with_without_header("design"));
  for (gen::Bench b : gen::all_benches()) {
    const std::string name = gen::to_string(b);
    add_with_without(
        &t, b, [](flow::FlowOptions* o) { o->tmi_wlm = false; }, name + "-3D",
        name + "-3D-n");
    t.add_separator();
  }
  t.print();
}

void s5() {
  util::Table t(
      "S5: AES T-MI with and without the MIV/MB1 local-routing blockages.\n"
      "Paper: negligible differences at 80%% utilization.");
  t.set_header(with_without_header("setting"));
  add_with_without(
      &t, gen::Bench::kAes,
      [](flow::FlowOptions* o) { o->local_blockage_frac = 0.0; },
      "AES-3D (with blockages)", "AES-3D (no blockages)");
  t.print();
}

void table16() {
  util::Table t(
      "Table 16: wire vs pin capacitance / power breakdown, 45nm. Paper:\n"
      "LDPC wire cap 558 pF >> pin 134 pF (wire-dominated); DES wire 64 <<\n"
      "pin 127 (pin-dominated) — which is why T-MI helps LDPC far more.");
  t.set_header({"design", "wire cap pF", "pin cap pF", "wire pwr uW",
                "pin pwr uW", "wire/pin cap"});
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kDes}) {
    const flow::CompareResult& c = base(b, tech::Node::k45nm);
    auto row = [&](const char* type, const flow::FlowResult& m) {
      t.add_row({std::string(gen::to_string(b)) + type,
                 strf("%.1f", m.wire_cap_pf), strf("%.1f", m.pin_cap_pf),
                 strf("%.1f", m.wire_uw), strf("%.1f", m.pin_uw),
                 strf("%.2f", m.wire_cap_pf / m.pin_cap_pf)});
    };
    row("-2D", c.flat);
    row("-3D", c.tmi);
    t.add_separator();
  }
  t.print();
  std::printf(
      "\nKey claim reproduced: LDPC's net power is wire-dominated, DES's is\n"
      "pin-dominated, so shortening wires helps LDPC disproportionately.\n");
}

void table17() {
  util::Table t(
      "Table 17: impact of the modified metal stack (T-MI+M) at 7nm.\n"
      "Paper: total power improves by ~2.4-2.8%% over plain T-MI.");
  t.set_header(power_header("vs T-MI"));
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kM256}) {
    const flow::FlowResult& plain = base(b, tech::Node::k7nm).tmi;
    flow::FlowOptions o = at_base_clock(b, tech::Node::k7nm);
    o.style = tech::Style::kTMIPlusM;
    const flow::FlowResult plus = compare(o).tmi;
    const std::string name = gen::to_string(b);
    add_power_row(&t, name + "-3D", plain, "-");
    add_power_row(&t, name + "-3D+M", plus,
                  pct_str(plus.total_uw, plain.total_uw));
    t.add_separator();
  }
  t.print();
}

// --- Figures ----------------------------------------------------------------

void draw_placement(util::SvgWriter* svg, const flow::FlowResult& r) {
  for (int i = 0; i < r.netlist.num_instances(); ++i) {
    const auto& inst = r.netlist.inst(i);
    if (inst.dead || !inst.placed || inst.libcell == nullptr) continue;
    const bool seq = inst.sequential();
    svg->rect(inst.pos.x - inst.libcell->width_um / 2,
              inst.pos.y - inst.libcell->height_um / 2, inst.libcell->width_um,
              inst.libcell->height_um, seq ? "#c2544d" : "#5b8dbf", 0.85);
  }
}

void draw_congestion(util::SvgWriter* svg, const flow::FlowResult& r,
                     int level) {
  const auto& routes = r.routes;
  const double gc = routes.gcell_um;
  for (int j = 0; j < routes.ny; ++j) {
    for (int i = 0; i < routes.nx; ++i) {
      double use = 0.0, cap = 1e-9;
      if (i + 1 < routes.nx) {
        use += routes.usage_h[static_cast<size_t>(level)]
                             [static_cast<size_t>(j * (routes.nx - 1) + i)];
        cap += routes.cap_h[static_cast<size_t>(level)];
      }
      if (j + 1 < routes.ny) {
        use += routes.usage_v[static_cast<size_t>(level)]
                             [static_cast<size_t>(j * routes.nx + i)];
        cap += routes.cap_v[static_cast<size_t>(level)];
      }
      const double ratio = std::min(1.0, use / cap);
      if (ratio <= 0.01) continue;
      const int red = static_cast<int>(40 + 215 * ratio);
      const int green = static_cast<int>(200 - 160 * ratio);
      svg->rect(i * gc, j * gc, gc, gc, strf("rgb(%d,%d,60)", red, green), 0.9);
    }
  }
}

void save(const util::SvgWriter& svg, const std::string& path) {
  if (svg.save(path)) {
    std::printf("  wrote %s\n", path.c_str());
  } else {
    std::printf("  FAILED to write %s\n", path.c_str());
  }
}

/// One flow per style at the base clock, for the figures that need the
/// placed and routed design rather than scalars.
void for_each_style_at_base_clock(
    gen::Bench bench,
    const std::function<void(tech::Style, const flow::FlowResult&)>& fn) {
  const flow::FlowOptions o = at_base_clock(bench, tech::Node::k45nm);
  for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
    flow::FlowOptions run = o;
    run.style = style;
    run.lib = &libs().of(run.node, style);
    fn(style, flow::run_flow(run));
  }
}

void fig3() {
  ::mkdir("out_figs", 0755);
  std::printf("Figs 3/8/10: writing layout snapshots to ./out_figs/\n");

  // Fig 3: LDPC and DES routed (2D) — congestion view plus footprint note.
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kDes, gen::Bench::kAes}) {
    for_each_style_at_base_clock(b, [b](tech::Style style,
                                        const flow::FlowResult& r) {
      const char* sname = style == tech::Style::k2D ? "2d" : "tmi";
      {
        util::SvgWriter svg(r.die.core.width(), r.die.core.height(), 700);
        draw_placement(&svg, r);
        save(svg, strf("out_figs/%s_%s_placement.svg", gen::to_string(b), sname));
      }
      for (int level = 0; level < route::kNumLevels; ++level) {
        util::SvgWriter svg(r.die.core.width(), r.die.core.height(), 700);
        draw_congestion(&svg, r, level);
        const char* lname =
            level == 0 ? "local" : (level == 1 ? "intermediate" : "global");
        save(svg, strf("out_figs/%s_%s_route_%s.svg", gen::to_string(b), sname,
                       lname));
      }
      std::printf("  %s %s: footprint %.0fx%.0f um, wl %.3f mm\n",
                  gen::to_string(b), sname, r.die.core.width(),
                  r.die.core.height(), r.total_wl_um / 1000.0);
    });
  }
  std::printf(
      "\nFig 3/8 claims visible in the SVGs: the T-MI die is 40%% smaller at\n"
      "the same utilization; DES shows tight local clusters while LDPC\n"
      "spreads congestion across the whole core (Fig 10: LDPC leans on\n"
      "intermediate/global layers far more than DES).\n");
}

void fig4() {
  util::Table t(
      "Fig 4: power reduction rate (T-MI over 2D) under various target\n"
      "clock periods. Paper trend: the faster the clock, the larger the\n"
      "benefit (AES @0.8ns: total ~11%%; M256 @2.4ns: ~17%%).");
  t.set_header({"circuit", "corner", "clock ns", "total pwr", "cell pwr",
                "net pwr", "leakage", "met"});
  for (gen::Bench b : {gen::Bench::kAes, gen::Bench::kM256}) {
    // Baseline: the tightest closable clock, then relaxed corners.
    const double base_clk = base(b, tech::Node::k45nm).flat.clock_ns;
    const struct {
      const char* name;
      double factor;
    } corners[] = {{"slow", 2.0}, {"medium", 1.35}, {"fast", 1.0}};
    for (const auto& corner : corners) {
      flow::FlowOptions o = preset(b, tech::Node::k45nm);
      o.clock_ns = base_clk * corner.factor;
      const flow::CompareResult c = compare(o);
      t.add_row({gen::to_string(b), corner.name, strf("%.2f", c.flat.clock_ns),
                 pct_str(c.tmi.total_uw, c.flat.total_uw),
                 pct_str(c.tmi.cell_uw, c.flat.cell_uw),
                 pct_str(c.tmi.net_uw, c.flat.net_uw),
                 pct_str(c.tmi.leak_uw, c.flat.leak_uw),
                 c.flat.timing_met && c.tmi.timing_met ? "yes" : "NO"});
    }
    t.add_separator();
  }
  t.print();
  std::printf(
      "\nKey claim: the power benefit of T-MI grows as the target clock\n"
      "tightens (2D needs more upsizing/buffering to make timing).\n");
}

void fig6() {
  const int fanouts[] = {1, 2, 3, 4, 6, 8, 12, 16, 20};
  util::Table t(
      "Fig 6: fanout vs estimated wirelength (um) in the per-circuit 2D\n"
      "WLMs, extracted from placed preliminary layouts. Paper shape:\n"
      "monotone growth, distinct per circuit, LDPC steepest.");
  std::vector<std::string> header{"circuit"};
  for (int f : fanouts) header.push_back(strf("f=%d", f));
  t.set_header(header);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const auto& lib = libs().of(tech::Node::k45nm, tech::Style::k2D);
  for (gen::Bench b : gen::all_benches()) {
    gen::GenOptions go;
    go.scale_shift = flow::default_scale_shift(b);
    circuit::Netlist nl = gen::make_benchmark(b, go);
    nl.bind(lib);
    synth::SynthOptions so;
    so.clock_ns = 100.0;  // preliminary layout: no timing pressure
    synth::synthesize(&nl, lib, synth::make_statistical_wlm(1e4, tch), so);
    place::Die die =
        place::make_die(&nl, flow::default_utilization(b), tch.row_height_um());
    place::place_design(&nl, die, {});
    const synth::Wlm wlm = synth::extract_wlm(nl, tch);
    std::vector<std::string> row{gen::to_string(b)};
    for (int f : fanouts) row.push_back(strf("%.1f", wlm.wl_um(f)));
    t.add_row(row);
  }
  t.print();
}

void fig10() {
  util::Table t(
      "Fig 10: wirelength by routing level (mm and %% of total), 45nm T-MI.\n"
      "Paper: both local and intermediate heavily used; LDPC uses much more\n"
      "global metal than M256/DES.");
  t.set_header({"circuit", "style", "local mm", "intermediate mm", "global mm",
                "local %", "inter %", "global %"});
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kM256, gen::Bench::kDes}) {
    for_each_style_at_base_clock(b, [&t, b](tech::Style style,
                                            const flow::FlowResult& r) {
      const auto& wl = r.routes.wl_by_level;
      const double total = r.routes.total_wl_um + 1e-9;
      t.add_row({gen::to_string(b), tech::to_string(style),
                 strf("%.3f", wl[0] / 1000.0), strf("%.3f", wl[1] / 1000.0),
                 strf("%.3f", wl[2] / 1000.0),
                 strf("%.1f", 100.0 * wl[0] / total),
                 strf("%.1f", 100.0 * wl[1] / total),
                 strf("%.1f", 100.0 * wl[2] / total)});
    });
    t.add_separator();
  }
  t.print();
}

void fig11() {
  const double activities[] = {0.1, 0.2, 0.3, 0.4};
  constexpr size_t kNumActivities = 4;

  // The per-circuit base comparisons pin the clock; the activity sweep (5
  // circuits x 4 activities, all independent) then fans out across the
  // exec pool, and the tables print from the ordered results.
  const std::vector<gen::Bench> benches = gen::all_benches();
  (void)bases(tech::Node::k45nm, benches);
  std::vector<flow::FlowOptions> jobs;
  for (gen::Bench b : benches) {
    flow::FlowOptions o = at_base_clock(b, tech::Node::k45nm);
    for (double a : activities) {
      o.seq_activity = a;
      jobs.push_back(o);
    }
  }
  const std::vector<flow::CompareResult> sweep = compare_all(jobs);

  util::Table t1(
      "Fig 11(a): M256 total power (uW) vs sequential switching activity,\n"
      "45nm.");
  t1.set_header({"activity", "2D uW", "3D uW", "reduction"});
  util::Table t2(
      "\nFig 11(b): power reduction rate vs switching activity, all\n"
      "circuits, 45nm (paper: nearly flat curves).");
  std::vector<std::string> header{"circuit"};
  for (double a : activities) header.push_back(strf("a=%.1f", a));
  t2.set_header(header);
  for (size_t bi = 0; bi < benches.size(); ++bi) {
    std::vector<std::string> row{gen::to_string(benches[bi])};
    for (size_t ai = 0; ai < kNumActivities; ++ai) {
      const flow::CompareResult& c = sweep[bi * kNumActivities + ai];
      row.push_back(pct_str(c.tmi.total_uw, c.flat.total_uw));
      if (benches[bi] == gen::Bench::kM256) {
        t1.add_row({strf("%.1f", activities[ai]), strf("%.1f", c.flat.total_uw),
                    strf("%.1f", c.tmi.total_uw), row.back()});
      }
    }
    t2.add_row(row);
  }
  t1.print();
  t2.print();
}

// --- Beyond the paper's tables ----------------------------------------------

void gmi() {
  util::Table t(
      "Extension: 2D vs G-MI vs T-MI at the same clock (45nm).\n"
      "G-MI keeps planar cells on two tiers (FM min-cut tier assignment,\n"
      "routing MIVs on cut nets); T-MI folds each cell across tiers.");
  t.set_header({"circuit", "style", "footprint um2", "WL mm", "total uW",
                "MIVs", "met", "pwr vs 2D"});
  for (gen::Bench b : {gen::Bench::kAes, gen::Bench::kDes}) {
    const flow::CompareResult& c = base(b, tech::Node::k45nm);
    gmi::GmiExtra extra;
    const flow::FlowResult g =
        gmi::run_gmi_flow(at_base_clock(b, tech::Node::k45nm), &extra);
    auto row = [&](const char* style, const flow::FlowResult& r,
                   const std::string& mivs) {
      t.add_row({gen::to_string(b), style, strf("%.0f", r.footprint_um2),
                 strf("%.3f", r.total_wl_um / 1000.0), strf("%.1f", r.total_uw),
                 mivs, r.timing_met ? "yes" : "NO",
                 pct_str(r.total_uw, c.flat.total_uw)});
    };
    row("2D", c.flat, "0");
    row("G-MI", g, strf("%d", extra.routing_mivs));
    row("T-MI", c.tmi, "in-cell");
    t.add_separator();
  }
  t.print();
  std::printf(
      "\nT-MI embeds its 3D connections inside the cells (no router burden);\n"
      "G-MI routes every inter-tier net explicitly. Note: this G-MI model is\n"
      "an *idealized upper bound* — the placer ignores tier-assignment\n"
      "constraints (any two cells may stack), so G-MI reaches a perfect 50%%\n"
      "footprint. The published G-MI flows the paper cites ([2], [8]) lose\n"
      "several points of that bound to partition-constrained placement and\n"
      "MIV keepouts, which is why the paper ranks T-MI densest in practice.\n");
}

struct Prepared {
  circuit::Netlist nl;
  place::Die die;
};

Prepared prepare_ldpc(const liberty::Library& lib, const tech::Tech& tch) {
  Prepared p;
  gen::GenOptions o;
  o.scale_shift = 3;
  p.nl = gen::make_ldpc(o);  // the congested benchmark (paper S6)
  p.nl.bind(lib);
  synth::SynthOptions so;
  so.clock_ns = 1.0;
  synth::synthesize(&p.nl, lib, synth::make_statistical_wlm(8e3, tch), so);
  p.die = place::make_die(&p.nl, 0.55, tch.row_height_um());
  place::place_design(&p.nl, p.die, {});
  return p;
}

void ablations() {
  const liberty::Library& lib = libs().of(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);

  {
    util::Table t(
        "Ablation 1: router rip-up-and-reroute iterations (LDPC at an\n"
        "aggressive 55%% utilization, 45nm 2D).");
    t.set_header({"rrr_iters", "WL mm", "overflow edges", "max congestion"});
    Prepared p = prepare_ldpc(lib, tch);
    for (int iters : {0, 1, 2, 4, 8}) {
      route::RouteOptions ro;
      ro.rrr_iters = iters;
      const auto r = route::global_route(p.nl, p.die, tch, ro);
      t.add_row({strf("%d", iters), strf("%.3f", r.total_wl_um / 1000.0),
                 strf("%d", r.overflow_edges), strf("%.2f", r.max_congestion)});
    }
    t.print();
    std::printf("\n");
  }
  {
    util::Table t("Ablation 2: CTS max sinks per buffer (LDPC, 45nm 2D).");
    t.set_header({"max_sinks", "clock buffers", "levels", "clock-net WL mm"});
    for (int fan : {8, 16, 24, 48}) {
      Prepared p = prepare_ldpc(lib, tch);
      cts::CtsOptions co;
      co.max_sinks_per_buffer = fan;
      const auto r = cts::build_clock_tree(&p.nl, lib, co);
      // Clock wirelength: route and sum the nets driven by clock buffers.
      const auto routes = route::global_route(p.nl, p.die, tch, {});
      double clock_wl = 0.0;
      for (int i = 0; i < p.nl.num_instances(); ++i) {
        const auto& inst = p.nl.inst(i);
        if (inst.dead || !inst.from_optimizer ||
            inst.func != cells::Func::kBuf) {
          continue;
        }
        clock_wl += routes.nets[static_cast<size_t>(inst.out_nets[0])].total_wl();
      }
      t.add_row({strf("%d", fan), strf("%d", r.buffers_added),
                 strf("%d", r.levels), strf("%.3f", clock_wl / 1000.0)});
    }
    t.print();
    std::printf("\n");
  }
  {
    util::Table t(
        "Ablation 3: max-transition limit vs buffer/upsize effort\n"
        "(random logic, 10%% long wires, 45nm 2D).");
    t.set_header({"max_slew ps", "upsized", "buffers added", "timing met"});
    for (double slew : {120.0, 200.0, 400.0}) {
      gen::RandomLogicOptions ro;
      ro.num_gates = 3000;
      circuit::Netlist nl = gen::make_random_logic(ro);
      nl.bind(lib);
      synth::SynthOptions so;
      so.clock_ns = 200.0;  // loose: isolates slew-driven effort from timing
      synth::synthesize(&nl, lib, synth::make_statistical_wlm(8e3, tch), so);
      const place::Die die = place::make_die(&nl, 0.8, tch.row_height_um());
      place::place_design(&nl, die, {});
      opt::OptOptions oo;
      oo.clock_ns = 200.0;
      oo.max_slew_ps = slew;
      const auto rep = opt::optimize(
          &nl, lib,
          [&](const circuit::Netlist& n) {
            return extract::extract_from_placement(n, tch);
          },
          oo);
      t.add_row({strf("%.0f", slew), strf("%d", rep.upsized),
                 strf("%d", rep.buffers_added), rep.met ? "yes" : "no"});
    }
    t.print();
  }
  std::printf(
      "\nExpected shapes: overflow falls with RRR iterations at slight WL\n"
      "cost; smaller CTS fanout buys more levels/buffers; tighter slew\n"
      "limits force more sizing/buffering.\n");
}

// --- Registry ---------------------------------------------------------------

struct Experiment {
  const char* id;
  const char* reproduces;
  void (*run)();
};

const Experiment kExperiments[] = {
    {"table1", "Table 1: cell internal parasitic RC, 2D vs folded T-MI (3D, 3D-c)", table1},
    {"table2", "Table 2: cell delay and internal energy at fast/medium/slow corners", table2},
    {"table3", "Table 3 + Fig 9: metal layer summary and stack diagrams", table3},
    {"table4", "Table 4: 45nm full-flow %-change of T-MI over 2D", table4},
    {"table5", "Table 5: comparison with previous works [2] and [7]", table5},
    {"table6", "Tables 6, 10 + Section 5 unit RC: 45nm vs 7nm setup", table6},
    {"table7", "Table 7: 7nm full-flow %-change of T-MI over 2D", table7},
    {"table8", "Table 8: lower cell pin capacitance at 7nm (DES)", table8},
    {"table9", "Table 9: 50% lower local+intermediate resistivity at 7nm (M256)", table9},
    {"table11", "Table 11: 7nm cell characterization by ITRS scaling", table11},
    {"table12", "Table 12: benchmark circuits and synthesis results, 45nm and 7nm", table12},
    {"table13", "Table 13: detailed 45nm layout results, 2D and T-MI", table13},
    {"table14", "Table 14: detailed 7nm layout results, 2D and T-MI", table14},
    {"table15", "Table 15 (S7): T-MI designs with vs without the T-MI WLM", table15},
    {"table16", "Table 16 (S8): wire vs pin capacitance and power, LDPC and DES", table16},
    {"table17", "Table 17 (S9): modified T-MI+M metal stack at 7nm (LDPC, M256)", table17},
    {"s5", "S5 / Fig 7: MIV/MB1 routing-blockage impact on AES", s5},
    {"fig3", "Figs 3, 8, 10: SVG placement and congestion snapshots in out_figs/", fig3},
    {"fig4", "Fig 4: T-MI power reduction vs target clock (AES, M256)", fig4},
    {"fig6", "Fig 6: fanout vs wirelength in the per-circuit 2D WLMs", fig6},
    {"fig10", "Fig 10: local/intermediate/global wirelength (LDPC, M256, DES)", fig10},
    {"fig11", "Fig 11: power vs sequential switching activity", fig11},
    {"gmi", "extension: 2D vs gate-level (G-MI) vs transistor-level (T-MI)", gmi},
    {"ablations", "ablations: router RRR iterations, CTS fanout, slew limit", ablations},
};

void print_list(std::FILE* out) {
  for (const Experiment& e : kExperiments) {
    std::fprintf(out, "%-10s %s\n", e.id, e.reproduces);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Experiment*> todo;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      print_list(stdout);
      return 0;
    }
    if (arg == "--all") {
      for (const Experiment& e : kExperiments) todo.push_back(&e);
      continue;
    }
    const Experiment* found = nullptr;
    for (const Experiment& e : kExperiments) {
      if (arg == e.id) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "m3d_repro: unknown experiment '%s'; known ids:\n",
                   arg.c_str());
      print_list(stderr);
      return 2;
    }
    todo.push_back(found);
  }
  if (todo.empty()) {
    std::fprintf(stderr,
                 "usage: m3d_repro <id>... | --all | --list\nknown ids:\n");
    print_list(stderr);
    return 2;
  }
  for (const Experiment* e : todo) e->run();
  return 0;
}
