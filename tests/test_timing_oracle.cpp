// 0-ULP oracles for the timing kernels. `sta::run_sta` / `run_hold_check`
// time a flat, levelized graph and `extract::extract_from_placement` walks a
// port index; both must reproduce the name-lookup / port-rescan originals
// (tests/timing_reference.hpp) bit for bit, at 1 and 4 threads, on generated
// benchmarks, random logic, netlists taken mid-optimization and hand-built
// port corner cases.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "extract/extract.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "sta/sta.hpp"
#include "test_fixtures.hpp"
#include "timing_reference.hpp"

namespace m3d {
namespace {

using circuit::NetId;

/// Index of the first element whose bits differ, or -1.
long first_bit_mismatch(const std::vector<double>& a,
                        const std::vector<double>& b) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<uint64_t>(a[k]) != std::bit_cast<uint64_t>(b[k])) {
      return static_cast<long>(k);
    }
  }
  return -1;
}

void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const long k = first_bit_mismatch(got, want);
  EXPECT_EQ(k, -1) << what << "[" << k << "]: "
                   << (k >= 0 ? got[static_cast<size_t>(k)] : 0.0) << " vs "
                   << (k >= 0 ? want[static_cast<size_t>(k)] : 0.0);
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_same_timing(const sta::TimingResult& got,
                        const sta::TimingResult& want, const std::string& tag) {
  expect_bits(got.arrival_ps, want.arrival_ps, tag + " arrival_ps");
  expect_bits(got.slew_ps, want.slew_ps, tag + " slew_ps");
  expect_bits(got.required_ps, want.required_ps, tag + " required_ps");
  expect_bits(got.inst_slack_ps, want.inst_slack_ps, tag + " inst_slack_ps");
  expect_bits(got.load_ff, want.load_ff, tag + " load_ff");
  expect_bits(got.wns_ps, want.wns_ps, tag + " wns_ps");
  expect_bits(got.tns_ps, want.tns_ps, tag + " tns_ps");
  expect_bits(got.critical_path_ps, want.critical_path_ps,
              tag + " critical_path_ps");
  EXPECT_EQ(got.critical_endpoint, want.critical_endpoint) << tag;
}

/// Runs the graph STA and hold check at 1 and 4 threads against the
/// reference (serial), comparing every output bitwise.
void check_sta_oracle(const circuit::Netlist& nl, const extract::Parasitics& par,
                      double clock_ns, const std::string& tag) {
  sta::StaOptions so;
  so.clock_ns = clock_ns;
  exec::set_default_threads(1);
  const sta::TimingResult want = test::ref::run_sta(nl, par, so);
  const sta::HoldResult want_hold = test::ref::run_hold_check(nl, par, so);
  for (int threads : {1, 4}) {
    exec::set_default_threads(threads);
    const std::string t = tag + " @" + std::to_string(threads) + "t";
    expect_same_timing(sta::run_sta(nl, par, so), want, t);
    const sta::HoldResult hold = sta::run_hold_check(nl, par, so);
    expect_bits(hold.worst_slack_ps, want_hold.worst_slack_ps,
                t + " hold worst_slack_ps");
    EXPECT_EQ(hold.violations, want_hold.violations) << t;
  }
  exec::set_default_threads(0);
}

void expect_same_parasitics(const extract::Parasitics& got,
                            const extract::Parasitics& want,
                            const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (size_t n = 0; n < got.size(); ++n) {
    const std::string t = tag + " net " + std::to_string(n);
    expect_bits(got[n].wire_cap_ff, want[n].wire_cap_ff, t + " wire_cap_ff");
    expect_bits(got[n].wire_res_kohm, want[n].wire_res_kohm,
                t + " wire_res_kohm");
    expect_bits(got[n].wirelength_um, want[n].wirelength_um,
                t + " wirelength_um");
    expect_bits(got[n].sink_res_kohm, want[n].sink_res_kohm,
                t + " sink_res_kohm");
  }
}

/// The test library with every pin cap and every arc made distinct (the
/// analytic library gives all arcs of a cell the same tables), so reading
/// the wrong slot, input or output changes the numbers.
liberty::Library skewed_library() {
  const liberty::Library base = test::make_test_library();
  liberty::Library lib;
  lib.name = base.name + "_skewed";
  lib.node = base.node;
  lib.style = base.style;
  lib.vdd_v = base.vdd_v;
  for (liberty::LibCell c : base.cells()) {
    double k = 1.0;
    for (auto& [pin, cap] : c.pin_cap_ff) cap *= (k += 0.13);
    for (size_t a = 0; a < c.arcs.size(); ++a) {
      for (int e = 0; e < 2; ++e) {
        const double f = 1.0 + 0.07 * static_cast<double>(a) + 0.03 * e;
        for (double& v : c.arcs[a].delay[e].value) v *= f;
        for (double& v : c.arcs[a].out_slew[e].value) v *= 2.0 - f;
      }
    }
    lib.add(std::move(c));
  }
  return lib;
}

struct Placed {
  liberty::Library lib = skewed_library();
  tech::Tech tch{tech::Node::k45nm, tech::Style::k2D};
  circuit::Netlist nl;
  place::Die die;

  explicit Placed(circuit::Netlist netlist) : nl(std::move(netlist)) {
    nl.bind(lib);
    die = place::make_die(&nl, 0.7, 1.4);
    place::place_design(&nl, die, {});
  }
  extract::Parasitics par() const {
    return extract::extract_from_placement(nl, tch);
  }
};

gen::GenOptions small(int scale_shift, uint64_t seed) {
  gen::GenOptions o;
  o.scale_shift = scale_shift;
  o.seed = seed;
  return o;
}

// --- STA ---------------------------------------------------------------

TEST(StaOracle, RandomLogicMatchesReferenceBitwise) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    gen::RandomLogicOptions ro;
    ro.num_gates = 400;
    ro.num_inputs = 24;
    ro.seed = seed;
    const Placed p(gen::make_random_logic(ro));
    const auto par = p.par();
    for (double clk : {0.3, 2.0}) {
      check_sta_oracle(p.nl, par, clk,
                       "random seed " + std::to_string(seed) + " clk " +
                           std::to_string(clk));
    }
  }
}

TEST(StaOracle, BenchmarksMatchReferenceBitwise) {
  const Placed ldpc(gen::make_ldpc(small(4, 20130529)));
  check_sta_oracle(ldpc.nl, ldpc.par(), 1.0, "LDPC");
  const Placed des(gen::make_des(small(4, 20130529)));
  check_sta_oracle(des.nl, des.par(), 0.5, "DES");
  // Half and full adders: the multi-output cells.
  const Placed m256(gen::make_m256(small(4, 20130529)));
  check_sta_oracle(m256.nl, m256.par(), 1.0, "M256");
  // Routed parasitics carry per-sink resistances.
  const auto routes = route::global_route(des.nl, des.die, des.tch, {});
  check_sta_oracle(des.nl, extract::extract_from_routes(des.nl, des.tch, routes),
                   0.5, "DES routed");
}

TEST(StaOracle, MidOptimizeNetlistsMatchReferenceBitwise) {
  Placed p(gen::make_des(small(4, 7)));
  // Every parasitics call of a real optimize run sees the netlist as the
  // previous round left it: upsized cells, inserted buffers, new nets.
  std::vector<circuit::Netlist> rounds;
  opt::OptOptions oo;
  oo.clock_ns = 0.35;
  oo.rounds = 4;
  oo.die = &p.die;
  opt::optimize(&p.nl, p.lib,
                [&](const circuit::Netlist& n) {
                  rounds.push_back(n);
                  return extract::extract_from_placement(n, p.tch);
                },
                oo);
  ASSERT_GE(rounds.size(), 3u);
  for (size_t k = 0; k < rounds.size(); ++k) {
    check_sta_oracle(rounds[k], extract::extract_from_placement(rounds[k], p.tch),
                     oo.clock_ns, "opt round " + std::to_string(k));
  }

  // Power recovery leaves dead buffers behind; make some explicitly, next to
  // live optimizer buffers and resized cells.
  circuit::Netlist nl = rounds.back();
  int removed = 0, live = 0, resized = 0;
  for (circuit::InstId i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead || !inst.from_optimizer || inst.func != cells::Func::kBuf) {
      continue;
    }
    if ((i % 2) == 0) {
      nl.remove_buffer(i);
      ++removed;
    } else {
      ++live;
    }
  }
  for (NetId n = 0; n < nl.num_nets() && removed < 4; ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock || net.fanout() < 3 || net.driver.inst == circuit::kInvalid) {
      continue;
    }
    const geom::Pt at = nl.inst(net.driver.inst).pos;
    // insert_buffer adds a net, so `net` must not be used past this call.
    const circuit::InstId buf =
        nl.insert_buffer(n, {net.sinks[0], net.sinks[1]}, p.lib, 2);
    nl.inst(buf).pos = at;
    nl.remove_buffer(buf);
    ++removed;
  }
  for (circuit::InstId i = 0; i < nl.num_instances(); i += 7) {
    if (nl.inst(i).dead || nl.inst(i).libcell == nullptr) continue;
    nl.resize_inst(i, p.lib, 4);
    ++resized;
  }
  ASSERT_TRUE(nl.validate());
  EXPECT_GT(removed, 0);
  EXPECT_GT(live, 0);
  EXPECT_GT(resized, 0);
  const auto par = extract::extract_from_placement(nl, p.tch);
  check_sta_oracle(nl, par, oo.clock_ns, "edited");
  check_sta_oracle(nl, par, 5.0, "edited loose");
}

// --- Placement extraction ----------------------------------------------

/// Port corner cases on a small hand-built netlist: a net with several
/// ports, port-only nets (with and without a pad sink), the clock net and
/// sink-less nets.
struct PortCorners {
  circuit::Netlist nl;
  NetId multi_port = circuit::kInvalid;  // one input + two output ports
  NetId inv_out = circuit::kInvalid;     // instance pins only
  NetId port_only = circuit::kInvalid;   // two ports and a pad sink
};

PortCorners port_corner_netlist(const liberty::Library& lib) {
  PortCorners pc;
  circuit::Netlist& nl = pc.nl;
  const NetId clk = nl.new_net("clk");
  nl.add_input_port("clk", clk);
  nl.set_clock(clk);
  const NetId a = pc.multi_port = nl.new_net("a");
  nl.add_input_port("a", a);
  nl.add_output_port("a_mon", a);
  nl.add_output_port("a_mon2", a);
  const NetId x = pc.inv_out = nl.new_net("x");
  nl.add_gate(cells::Func::kInv, {a}, {x});
  const NetId y = nl.new_net("y");
  nl.add_gate(cells::Func::kNand2, {a, x}, {y});
  const NetId q = nl.new_net("q");
  nl.add_gate(cells::Func::kDff, {y, clk}, {q});
  nl.add_output_port("q", q);
  // A pad sink on a flop output: setup loads count it, hold loads do not.
  // (topo_order cannot walk pad sinks of combinational drivers.)
  nl.net(q).sinks.push_back({circuit::kInvalid, 0});
  const NetId z = nl.new_net("z");  // flop to flop: a hold endpoint
  nl.add_gate(cells::Func::kBuf, {q}, {z});
  nl.add_gate(cells::Func::kDff, {z, clk}, {nl.new_net("q2")});  // no sinks
  const NetId feed = pc.port_only = nl.new_net("feed");
  nl.add_input_port("feed_in", feed);
  nl.add_output_port("feed_out", feed);
  nl.net(feed).sinks.push_back({circuit::kInvalid, 0});
  nl.add_input_port("lone", nl.new_net("lone"));  // one port, no sinks
  nl.new_net("floating");                         // no pins at all
  nl.bind(lib);
  for (circuit::InstId i = 0; i < nl.num_instances(); ++i) {
    nl.inst(i).pos = {37.5 * (i + 1), 11.0 * i};
    nl.inst(i).placed = true;
  }
  double y0 = 3.0;
  for (auto& port : nl.ports()) port.pos = {0.0, y0 *= 2.7};
  return pc;
}

TEST(ExtractOracle, PortCornerCasesMatchReferenceBitwise) {
  const liberty::Library lib = skewed_library();
  const PortCorners pc = port_corner_netlist(lib);
  for (tech::Node node : {tech::Node::k45nm, tech::Node::k7nm}) {
    for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
      const tech::Tech tch(node, style);
      const std::string tag = std::string(tech::to_string(style)) +
                              (node == tech::Node::k7nm ? " 7nm" : " 45nm");
      const auto got = extract::extract_from_placement(pc.nl, tch);
      expect_same_parasitics(
          got, test::ref::extract_from_placement(pc.nl, tch), tag);
      // Ports widen the box: the multi-port net spans its pads, and the
      // port-only net is extracted from its pads alone.
      EXPECT_GT(got[static_cast<size_t>(pc.multi_port)].wirelength_um,
                got[static_cast<size_t>(pc.inv_out)].wirelength_um)
          << tag;
      EXPECT_GT(got[static_cast<size_t>(pc.port_only)].wire_cap_ff, 0.0) << tag;
    }
  }
  check_sta_oracle(
      pc.nl,
      extract::extract_from_placement(
          pc.nl, tech::Tech(tech::Node::k45nm, tech::Style::k2D)),
      1.0, "port corners");
}

TEST(ExtractOracle, BenchmarksMatchReferenceBitwise) {
  const Placed des(gen::make_des(small(4, 3)));
  expect_same_parasitics(des.par(),
                         test::ref::extract_from_placement(des.nl, des.tch),
                         "DES");
  const Placed m256(gen::make_m256(small(3, 3)));
  ASSERT_GT(m256.nl.ports().size(), 100u);
  for (tech::Node node : {tech::Node::k45nm, tech::Node::k7nm}) {
    const tech::Tech tch(node, tech::Style::kTMI);
    expect_same_parasitics(extract::extract_from_placement(m256.nl, tch),
                           test::ref::extract_from_placement(m256.nl, tch),
                           "M256");
  }
}

}  // namespace
}  // namespace m3d
