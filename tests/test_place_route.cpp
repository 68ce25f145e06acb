#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "test_fixtures.hpp"
#include "util/rng.hpp"

namespace m3d {
namespace {

circuit::Netlist make_small_design(const liberty::Library& lib) {
  gen::GenOptions o;
  o.scale_shift = 4;
  circuit::Netlist nl = gen::make_des(o);
  nl.bind(lib);
  return nl;
}

TEST(Place, DieSizedForUtilization) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  EXPECT_NEAR(nl.total_cell_area_um2() / die.core.area(), 0.8, 0.03);
  EXPECT_GT(die.num_rows, 2);
  // Roughly square.
  EXPECT_NEAR(die.core.width() / die.core.height(), 1.0, 0.2);
  // Ports on the boundary.
  for (const auto& port : nl.ports()) {
    const bool on_edge = port.pos.x <= die.core.xlo + 1e-6 ||
                         port.pos.x >= die.core.xhi - 1e-6 ||
                         port.pos.y <= die.core.ylo + 1e-6 ||
                         port.pos.y >= die.core.yhi - 1e-6;
    EXPECT_TRUE(on_edge) << port.name;
  }
}

TEST(Place, AllCellsLegalInRows) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead) continue;
    EXPECT_TRUE(inst.placed);
    EXPECT_GE(inst.pos.x, die.core.xlo - 1e-6);
    EXPECT_LE(inst.pos.x, die.core.xhi + 1e-6);
    // y snapped to a row center.
    const double rel = (inst.pos.y - die.core.ylo) / die.row_height_um - 0.5;
    EXPECT_NEAR(rel, std::round(rel), 1e-6) << inst.name;
  }
}

TEST(Place, BeatsRandomPlacementOnHpwl) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const double placed = place::total_hpwl_um(nl);
  // Shuffle positions among instances for a random baseline.
  util::Rng rng(3);
  std::vector<geom::Pt> pos;
  for (int i = 0; i < nl.num_instances(); ++i) pos.push_back(nl.inst(i).pos);
  rng.shuffle(pos);
  for (int i = 0; i < nl.num_instances(); ++i) nl.inst(i).pos = pos[static_cast<size_t>(i)];
  const double random = place::total_hpwl_um(nl);
  EXPECT_LT(placed, 0.6 * random);
}

TEST(Place, DeterministicAcrossRuns) {
  const auto lib = test::make_test_library();
  auto a = make_small_design(lib);
  auto b = make_small_design(lib);
  const place::Die da = place::make_die(&a, 0.8, 1.4);
  const place::Die db = place::make_die(&b, 0.8, 1.4);
  place::place_design(&a, da, {});
  place::place_design(&b, db, {});
  for (int i = 0; i < a.num_instances(); ++i) {
    EXPECT_EQ(a.inst(i).pos, b.inst(i).pos);
  }
}

TEST(Place, SmallerRowHeightShrinksDieAndWl) {
  const auto lib2d = test::make_test_library(tech::Style::k2D);
  const auto lib3d = test::make_test_library(tech::Style::kTMI);
  auto n2 = make_small_design(lib2d);
  auto n3 = make_small_design(lib3d);
  const place::Die d2 = place::make_die(&n2, 0.8, 1.4);
  const place::Die d3 = place::make_die(&n3, 0.8, 0.84);
  EXPECT_NEAR(d3.core.area() / d2.core.area(), 0.6, 0.03);
  place::place_design(&n2, d2, {});
  place::place_design(&n3, d3, {});
  EXPECT_LT(place::total_hpwl_um(n3), place::total_hpwl_um(n2));
}

TEST(Route, RoutesPlacedDesign) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const auto rr = route::global_route(nl, die, tch, {});
  EXPECT_GT(rr.total_wl_um, 0.0);
  EXPECT_GT(rr.total_vias, 0);
  // Routed wirelength at least the HPWL lower bound (same gcell metric is
  // coarser, so allow slack downward but it must be the same order).
  EXPECT_GT(rr.total_wl_um, 0.5 * place::total_hpwl_um(nl));
  // Every signal net with sinks has wire.
  int with_wl = 0, signal = 0;
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    ++signal;
    if (rr.nets[static_cast<size_t>(n)].total_wl() > 0 ||
        rr.nets[static_cast<size_t>(n)].vias > 0) {
      ++with_wl;
    }
  }
  EXPECT_GT(with_wl, signal * 9 / 10);
}

TEST(Route, TmiStackHasMoreLocalCapacity) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech t2(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);
  const auto r2 = route::global_route(nl, die, t2, {});
  const auto r3 = route::global_route(nl, die, t3, {});
  EXPECT_GE(r3.cap_h[route::kLocal], 2.0 * r2.cap_h[route::kLocal]);
  EXPECT_GE(r3.cap_v[route::kLocal], 2.0 * r2.cap_v[route::kLocal]);
}

TEST(Route, BlockageDerateReducesCapacity) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::kTMI);
  route::RouteOptions a, b;
  b.local_blockage_frac = 0.5;
  const auto ra = route::global_route(nl, die, tch, a);
  const auto rb = route::global_route(nl, die, tch, b);
  EXPECT_NEAR(rb.cap_h[route::kLocal], 0.5 * ra.cap_h[route::kLocal], 1e-9);
}

TEST(Route, SinkPathsCoverEverySink) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const auto rr = route::global_route(nl, die, tch, {});
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    EXPECT_EQ(rr.nets[static_cast<size_t>(n)].sink_path_wl.size(), net.sinks.size());
  }
}

TEST(Route, RerouteLeavesAPreferredLevelWithNoRoomForIt) {
  // A 4x4 grid with room for one local wire per edge (2.8 um gcells, 1.5
  // local tracks). Four pads in gcell column 0 each feed an inverter in
  // column 1 on their own row, which fills every local edge across the
  // column 0|1 cut; a fifth wire doubles up on row 0. Once that two-pin is
  // ripped up, every local path still crosses the full cut, so it must not
  // keep the local level: it moves one level up and the design routes clean.
  circuit::Netlist nl;
  auto wire = [&](int row) {
    const double y = (row + 0.5) * 2.8;
    const circuit::NetId n = nl.new_net();
    nl.add_input_port("in" + std::to_string(nl.ports().size()), n);
    nl.ports().back().pos = {1.4, y};
    const circuit::InstId g = nl.add_gate(cells::Func::kInv, {n}, {nl.new_net()});
    nl.inst(g).pos = {4.2, y};
  };
  for (int row : {0, 1, 2, 3, 0}) wire(row);
  place::Die die;
  die.core = geom::Rect(0.0, 0.0, 10.0, 10.0);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  route::RouteOptions ro;
  ro.gcell_um = 2.8;
  const double local_tracks = route::global_route(nl, die, tch, ro).cap_h[route::kLocal];
  ro.local_blockage_frac = 1.0 - 1.5 / local_tracks;
  const auto rr = route::global_route(nl, die, tch, ro);
  ASSERT_EQ(rr.nx, 4);
  ASSERT_EQ(rr.ny, 4);
  ASSERT_NEAR(rr.cap_h[route::kLocal], 1.5, 1e-9);
  EXPECT_TRUE(rr.routed);
  EXPECT_EQ(rr.overflow_edges, 0);
  EXPECT_DOUBLE_EQ(rr.wl_by_level[route::kLocal], 4 * 2.8);
  EXPECT_DOUBLE_EQ(rr.wl_by_level[route::kIntermediate], 2.8);
  EXPECT_DOUBLE_EQ(rr.wl_by_level[route::kGlobal], 0.0);
}

}  // namespace
}  // namespace m3d
