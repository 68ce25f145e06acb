// Exact oracle for the global router. `route::global_route` runs its maze on
// an indexed A* heap over a maintained edge-cost table; it must reproduce the
// lazy-deletion maze over recomputed costs (tests/route_reference.hpp) bit
// for bit — every usage array, every per-net wirelength, via count and
// per-sink path wirelength, the overflow count and the peak congestion — at
// 1 and 4 threads. LDPC, DES and M256 are routed in 2D and T-MI, starved of
// local tracks and given up to 8 rip-up-and-reroute iterations, so the mazes
// run under large history and congestion costs; the most starved case drives
// A* keys past the indexed heap's exactness bound and exercises the lazy
// fallback. RouteClosure checks that LDPC at its default scale routes with
// no overflow (the shift-1 case is in the slow suite, tests/test_fuzz_flow.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "gen/gen.hpp"
#include "route/route.hpp"
#include "route_checks.hpp"
#include "route_reference.hpp"
#include "test_fixtures.hpp"
#include "util/metrics.hpp"

namespace m3d {
namespace {

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
double check_route_oracle(const test::Placed& p, const route::RouteOptions& ro,
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
    test::expect_same_routes(route::global_route(p.nl, p.die, p.tch, ro), want, t);
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
    const test::Placed p(gen::make_benchmark(bench, small(scale_shift, 20130529)),
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
  const test::Placed p(gen::make_ldpc(small(5, 20130529)), tech::Style::k2D, 0.5);
  auto& process = util::MetricsRegistry::global();
  const double before = process.counter("route.maze_lazy_fallbacks");
  check_route_oracle(p, starved(0.999, 3), "LDPC local x0.001");
  EXPECT_GT(process.counter("route.maze_lazy_fallbacks"), before);
}

TEST(RouteOracle, ScratchReuseIsPostedToTheProcessRegistry) {
  const test::Placed p(gen::make_des(small(4, 20130529)), tech::Style::k2D, 0.7);
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

TEST(RouteClosure, LdpcRoutesCleanAtDefaultScale) {
  test::check_ldpc_routes_clean(2);
}

}  // namespace
}  // namespace m3d
