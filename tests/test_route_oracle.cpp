// Exact oracle for the global router. `route::global_route` runs its maze on
// an indexed A* heap over a maintained edge-cost table; it must reproduce the
// lazy-deletion maze over recomputed costs (tests/route_reference.hpp) bit
// for bit — every usage array, every per-net wirelength, via count and
// per-sink path wirelength, the overflow count and the peak congestion — at
// 1 and 4 threads. LDPC, DES and M256 are routed in 2D and T-MI, starved of
// local tracks and given up to 8 rip-up-and-reroute iterations, so the mazes
// run under large history and congestion costs; the most starved case drives
// A* keys past the indexed heap's exactness bound and exercises the lazy
// fallback.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "gen/gen.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "route_reference.hpp"
#include "test_fixtures.hpp"
#include "util/metrics.hpp"

namespace m3d {
namespace {

bool same_bits(double a, double b) {
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

void expect_bits(const std::vector<double>& got,
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

void expect_same_routes(const route::RouteResult& got,
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
      : lib(test::make_test_library(style)),
        tch(tech::Node::k45nm, style),
        nl(std::move(netlist)) {
    nl.bind(lib);
    die = place::make_die(&nl, util, tch.row_height_um());
    place::place_design(&nl, die, {});
  }
};

gen::GenOptions small(int scale_shift, uint64_t seed) {
  gen::GenOptions o;
  o.scale_shift = scale_shift;
  o.seed = seed;
  return o;
}

/// The router's work counters on the calling thread's sink.
struct RouteCounters {
  double maze_calls, maze_batches, overflow_retries;
};

RouteCounters route_counters() {
  const auto& reg = util::MetricsRegistry::current();
  return {reg.counter("route.maze_calls"), reg.counter("route.maze_batches"),
          reg.counter("route.overflow_retries")};
}

/// Routes `p` with `ro` at 1 and 4 threads and compares each result with the
/// reference router (run serially). Returns the maze calls of one route.
double check_route_oracle(const Placed& p, const route::RouteOptions& ro,
                          const std::string& tag) {
  exec::set_default_threads(1);
  const route::RouteResult want =
      test::route_ref::global_route(p.nl, p.die, p.tch, ro);
  util::MetricsRegistry sink;
  const util::ScopedMetricsSink scope(sink);
  RouteCounters first{};
  for (int threads : {1, 4}) {
    exec::set_default_threads(threads);
    const std::string t = tag + " @" + std::to_string(threads) + "t";
    sink.reset();
    expect_same_routes(route::global_route(p.nl, p.die, p.tch, ro), want, t);
    const RouteCounters c = route_counters();
    if (threads == 1) {
      first = c;
    } else {
      EXPECT_EQ(c.maze_calls, first.maze_calls) << t;
      EXPECT_EQ(c.maze_batches, first.maze_batches) << t;
      EXPECT_EQ(c.overflow_retries, first.overflow_retries) << t;
    }
    // Every batch rips at least one two-pin; every ripped two-pin runs 1-3
    // mazes.
    EXPECT_LE(c.maze_batches, c.overflow_retries) << t;
    EXPECT_LE(c.overflow_retries, c.maze_calls) << t;
    EXPECT_LE(c.maze_calls, 3.0 * c.overflow_retries) << t;
  }
  exec::set_default_threads(0);
  return first.maze_calls;
}

route::RouteOptions starved(double blockage, int rrr_iters) {
  route::RouteOptions ro;
  ro.local_blockage_frac = blockage;
  ro.rrr_iters = rrr_iters;
  return ro;
}

void check_styles(gen::Bench bench, int scale_shift, double util) {
  for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
    const Placed p(gen::make_benchmark(bench, small(scale_shift, 20130529)),
                   style, util);
    const std::string tag = std::string(gen::to_string(bench)) + " " +
                            tech::to_string(style);
    // The flow's own options, then local capacity starved to 0.6 and 0.3 of
    // nominal with 8 and 6 iterations of history cost.
    check_route_oracle(p, route::RouteOptions{}, tag + " default");
    check_route_oracle(p, starved(0.4, 8), tag + " local x0.6, 8 iters");
    const double mazes =
        check_route_oracle(p, starved(0.7, 6), tag + " local x0.3, 6 iters");
    EXPECT_GT(mazes, 0.0) << tag;
  }
}

TEST(RouteOracle, LdpcMatchesReferenceExactly) {
  check_styles(gen::Bench::kLdpc, 5, 0.5);
}

TEST(RouteOracle, DesMatchesReferenceExactly) {
  check_styles(gen::Bench::kDes, 4, 0.7);
}

TEST(RouteOracle, M256MatchesReferenceExactly) {
  check_styles(gen::Bench::kM256, 3, 0.7);
}

TEST(RouteOracle, KeysPastTheIndexedBoundTakeTheLazySearch) {
  // Local capacity at 0.1% of nominal: edge costs reach 1e6 and more, so
  // A* keys pass 2^22 and those mazes rerun on the lazy search.
  const Placed p(gen::make_ldpc(small(5, 20130529)), tech::Style::k2D, 0.5);
  auto& process = util::MetricsRegistry::global();
  const double before = process.counter("route.maze_lazy_fallbacks");
  check_route_oracle(p, starved(0.999, 3), "LDPC local x0.001");
  EXPECT_GT(process.counter("route.maze_lazy_fallbacks"), before);
}

TEST(RouteOracle, ScratchReuseIsPostedToTheProcessRegistry) {
  const Placed p(gen::make_des(small(4, 20130529)), tech::Style::k2D, 0.7);
  auto& process = util::MetricsRegistry::global();
  const double before = process.counter("route.maze_scratch_reuse");
  util::MetricsRegistry sink;
  const util::ScopedMetricsSink scope(sink);
  exec::set_default_threads(1);
  route::global_route(p.nl, p.die, p.tch, starved(0.4, 4));
  exec::set_default_threads(0);
  const double calls = sink.counter("route.maze_calls");
  ASSERT_GT(calls, 1.0);
  // Serial: every call after the first finds the thread's arrays big enough
  // unless its window is the largest yet.
  const double reuse = process.counter("route.maze_scratch_reuse") - before;
  EXPECT_GT(reuse, 0.0);
  EXPECT_LE(reuse, calls);
  EXPECT_EQ(sink.counter("route.maze_scratch_reuse"), 0.0);
}

}  // namespace
}  // namespace m3d
