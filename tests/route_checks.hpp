// Shared route-test helpers: a field-by-field, bit-for-bit RouteResult
// comparison, a generated benchmark bound and placed with the test library,
// and the LDPC routing-closure check (tests/test_route_oracle.cpp,
// tests/test_fuzz_flow.cpp).
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "exec/exec.hpp"
#include "gen/gen.hpp"
#include "liberty/library.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "tech/tech.hpp"
#include "test_fixtures.hpp"

namespace m3d::test {

inline bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

template <size_t N>
void expect_bits(const std::array<double, N>& got,
                 const std::array<double, N>& want, const std::string& what) {
  for (size_t k = 0; k < N; ++k) {
    EXPECT_TRUE(same_bits(got[k], want[k]))
        << what << "[" << k << "]: " << got[k] << " vs " << want[k];
  }
}

inline void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t k = 0; k < got.size(); ++k) {
    if (!same_bits(got[k], want[k])) {
      ADD_FAILURE() << what << "[" << k << "]: " << got[k] << " vs "
                    << want[k];
      return;
    }
  }
}

inline void expect_same_routes(const route::RouteResult& got,
                        const route::RouteResult& want,
                        const std::string& tag) {
  ASSERT_EQ(got.nets.size(), want.nets.size()) << tag;
  for (size_t n = 0; n < got.nets.size(); ++n) {
    const route::NetRoute& g = got.nets[n];
    const route::NetRoute& w = want.nets[n];
    const std::string t = tag + " net " + std::to_string(n);
    expect_bits(g.wl_um, w.wl_um, t + " wl_um");
    EXPECT_EQ(g.vias, w.vias) << t;
    ASSERT_EQ(g.sink_path_wl.size(), w.sink_path_wl.size()) << t;
    for (size_t s = 0; s < g.sink_path_wl.size(); ++s) {
      expect_bits(g.sink_path_wl[s], w.sink_path_wl[s],
                  t + " sink_path_wl[" + std::to_string(s) + "]");
    }
    if (::testing::Test::HasFailure()) return;  // one net's diff is enough
  }
  EXPECT_TRUE(same_bits(got.total_wl_um, want.total_wl_um)) << tag;
  expect_bits(got.wl_by_level, want.wl_by_level, tag + " wl_by_level");
  EXPECT_EQ(got.total_vias, want.total_vias) << tag;
  EXPECT_EQ(got.overflow_edges, want.overflow_edges) << tag;
  EXPECT_TRUE(same_bits(got.max_congestion, want.max_congestion))
      << tag << " max_congestion " << got.max_congestion << " vs "
      << want.max_congestion;
  EXPECT_EQ(got.routed, want.routed) << tag;
  EXPECT_EQ(got.nx, want.nx) << tag;
  EXPECT_EQ(got.ny, want.ny) << tag;
  EXPECT_TRUE(same_bits(got.gcell_um, want.gcell_um)) << tag;
  for (int l = 0; l < route::kNumLevels; ++l) {
    const std::string t = tag + " level " + std::to_string(l);
    expect_bits(got.usage_h[static_cast<size_t>(l)],
                want.usage_h[static_cast<size_t>(l)], t + " usage_h");
    expect_bits(got.usage_v[static_cast<size_t>(l)],
                want.usage_v[static_cast<size_t>(l)], t + " usage_v");
  }
  expect_bits(got.cap_h, want.cap_h, tag + " cap_h");
  expect_bits(got.cap_v, want.cap_v, tag + " cap_v");
}

/// A generated benchmark, bound and placed for one integration style.
struct Placed {
  liberty::Library lib;
  tech::Tech tch;
  circuit::Netlist nl;
  place::Die die;

  Placed(circuit::Netlist netlist, tech::Style style, double util)
      : lib(make_test_library(style)),
        tch(tech::Node::k45nm, style),
        nl(std::move(netlist)) {
    nl.bind(lib);
    die = place::make_die(&nl, util, tch.row_height_um());
    place::place_design(&nl, die, {});
  }
};

/// LDPC at `scale_shift` (seed 20130529, utilization 0.33, the flow's T-MI
/// local blockage) routes with no overflow in 2D and T-MI, and the result is
/// the same at 1 and 4 threads.
inline void check_ldpc_routes_clean(int scale_shift) {
  gen::GenOptions g;
  g.scale_shift = scale_shift;
  for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
    const Placed p(gen::make_ldpc(g), style, 0.33);
    const std::string tag = "LDPC s" + std::to_string(scale_shift) + " " +
                            tech::to_string(style);
    route::RouteOptions ro;
    ro.local_blockage_frac = p.tch.is_3d() ? 0.03 : 0.0;
    exec::set_default_threads(1);
    const route::RouteResult serial = route::global_route(p.nl, p.die, p.tch, ro);
    exec::set_default_threads(4);
    const route::RouteResult threaded = route::global_route(p.nl, p.die, p.tch, ro);
    exec::set_default_threads(0);
    EXPECT_EQ(serial.overflow_edges, 0) << tag;
    EXPECT_TRUE(serial.routed) << tag;
    expect_same_routes(threaded, serial, tag + " @4t");
  }
}

}  // namespace m3d::test
