#include "workloads.hpp"

#include <cstdio>
#include <sstream>

#include "exec/exec.hpp"
#include "flow/artifacts.hpp"
#include "flow/report.hpp"
#include "liberty/characterize.hpp"
#include "measure.hpp"
#include "tech/tech.hpp"
#include "tests/test_fixtures.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace flow = m3d::flow;

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kLdpcIso, Workload::kDesSweep, Workload::kCharLib}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kLdpcIso: return "ldpc_iso";
    case Workload::kDesSweep: return "des_sweep";
    case Workload::kCharLib: return "char_lib";
  }
  return "?";
}

bool is_flow(Workload w) { return w != Workload::kCharLib; }

AnalyticLibs set_up(int threads) {
  m3d::exec::set_default_threads(threads);
  return {m3d::test::make_test_library(m3d::tech::Style::k2D),
          m3d::test::make_test_library(m3d::tech::Style::kTMI)};
}

namespace {
/// The design seeds of one ldpc_iso op: the run seed, and the run seed mixed
/// with an odd constant (the 64-bit golden ratio), so that no two run seeds
/// share a design. LDPC route effort varies with the design (one comparison's
/// CPU time by about 8% from seed to seed), and an op of two designs halves
/// that variance between runs.
std::vector<uint64_t> ldpc_design_seeds(uint64_t seed) {
  return {seed, seed ^ 0x9E3779B97F4A7C15ULL};
}
}  // namespace

std::vector<flow::FlowOptions> flow_configs(Workload w, uint64_t seed,
                                            const AnalyticLibs& libs) {
  flow::FlowOptions base;
  base.node = m3d::tech::Node::k45nm;
  base.style = m3d::tech::Style::kTMI;
  base.seed = seed;
  base.lib = &libs.flat;
  base.check_level = m3d::check::Level::kFull;
  std::vector<flow::FlowOptions> out;
  if (w == Workload::kLdpcIso) {
    // Quarter paper scale (~26k cells): a comparison takes 4-5 s on two
    // threads, so a run holds several, and the flows stay congested (T-MI
    // never routes clean) with route about a third of a traced op. At
    // scale_shift 3 every flow routes clean and route falls under 10%.
    base.bench = m3d::gen::Bench::kLdpc;
    base.scale_shift = 2;
    base.target_util = 0.33;
    base.clock_ns = 5.3;
    for (uint64_t s : ldpc_design_seeds(seed)) {
      base.seed = s;
      out.push_back(base);
    }
  } else if (w == Workload::kDesSweep) {
    base.bench = m3d::gen::Bench::kDes;
    base.scale_shift = 0;
    base.target_util = flow::default_utilization(base.bench);
    for (double clk : {1.4, 1.6, 1.8, 2.0}) {
      base.clock_ns = clk;
      out.push_back(base);
    }
  }
  return out;
}

bool in_flight(Workload w) { return w == Workload::kDesSweep; }

FlowOp run_flow_op(const std::vector<flow::FlowOptions>& cfgs,
                   const AnalyticLibs& libs, bool together) {
  FlowOp op;
  op.cmps.resize(cfgs.size());
  m3d::util::MetricsRegistry reg;
  {
    const m3d::util::ScopedMetricsSink sink(reg);
    auto compare = [&](size_t i) {
      op.cmps[i] = flow::run_iso_comparison(cfgs[i], libs.flat, libs.tmi);
    };
    if (together) {
      m3d::exec::TaskGroup group(m3d::exec::default_pool());
      for (size_t i = 0; i < cfgs.size(); ++i) group.run([&, i] { compare(i); });
      group.wait();
    } else {
      for (size_t i = 0; i < cfgs.size(); ++i) compare(i);
    }
  }
  // run_flow's root span lands in the caller's sink as "span.flow.run
  // <node>/<style>", one sample per call.
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("span.flow.run ", 0) == 0) op.flows += static_cast<int>(h.count);
  }
  return op;
}

long sweep_points(const m3d::liberty::LibCell& cell) {
  // Each arc's delay table spans the (slew, load) grid, and every grid point
  // is simulated once per edge.
  long n = 0;
  for (const auto& arc : cell.arcs) {
    n += 2L * static_cast<long>(arc.delay[0].slew_ps.size() *
                                arc.delay[0].load_ff.size());
  }
  return n;
}

namespace {
bool is_point_failure(const std::string& line) {
  return line.find("char: ") != std::string::npos &&
         line.find(" failed at ") != std::string::npos;
}
}  // namespace

long failed_points(const std::string& log_text) {
  std::istringstream in(log_text);
  long n = 0;
  for (std::string line; std::getline(in, line);) n += is_point_failure(line);
  return n;
}

void forward_other_lines(const std::string& log_text) {
  std::istringstream in(log_text);
  for (std::string line; std::getline(in, line);) {
    if (!is_point_failure(line)) std::fprintf(stderr, "%s\n", line.c_str());
  }
}

CharOp run_char_op() {
  CharOp op;
  StderrCapture cap;
  op.flat = m3d::liberty::build_library_45nm(m3d::tech::Style::k2D);
  op.tmi = m3d::liberty::build_library_45nm(m3d::tech::Style::kTMI);
  const std::string& log_text = cap.finish();
  for (const auto* lib : {&op.flat, &op.tmi}) {
    for (const auto& cell : lib->cells()) op.points.attempted += sweep_points(cell);
  }
  op.points.failed = failed_points(log_text);
  forward_other_lines(log_text);
  return op;
}

Verdict Reference::check(const FlowOp& op) {
  Verdict v;
  std::vector<std::string> reports;
  for (const auto& c : op.cmps) {
    ++v.items;
    bool closed = true;
    for (const flow::FlowResult* r : {&c.flat, &c.tmi}) {
      closed = closed && r->timing_met && r->routed;
      v.error_checks = v.error_checks || r->checks.errors() > 0;
      reports.push_back(m3d::report::to_canonical_json_string(*r));
    }
    v.closure_failed += closed ? 0 : 1;
  }
  if (reports_.empty()) {
    reports_ = std::move(reports);
  } else {
    v.mismatch = reports != reports_;
  }
  return v;
}

namespace {
bool same_inventory(const m3d::liberty::Library& got,
                    const m3d::liberty::Library& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& g = got.cells()[i];
    const auto& w = want.cells()[i];
    auto pins = [](const m3d::liberty::LibCell& c) {
      std::vector<std::string> p;
      for (const auto& [pin, cap] : c.pin_cap_ff) p.push_back(pin);
      return p;
    };
    if (g.name != w.name || g.func != w.func || g.drive != w.drive ||
        g.sequential != w.sequential || pins(g) != pins(w) || g.arcs.empty()) {
      return false;
    }
  }
  return true;
}
}  // namespace

Verdict Reference::check(const CharOp& op, const AnalyticLibs& expected) {
  Verdict v;
  v.items = static_cast<int>(op.flat.size() + op.tmi.size());
  v.error_checks = !same_inventory(op.flat, expected.flat) ||
                   !same_inventory(op.tmi, expected.tmi);
  for (const auto* lib : {&op.flat, &op.tmi}) {
    v.error_checks = v.error_checks || !m3d::check::check_library(*lib).ok();
  }
  const std::vector<uint64_t> libs = {flow::artifacts::library_fingerprint(op.flat),
                                      flow::artifacts::library_fingerprint(op.tmi)};
  if (libs_.empty()) {
    libs_ = libs;
  } else {
    v.mismatch = libs != libs_;
  }
  return v;
}

FlowQor flow_qor(const FlowOp& op) {
  FlowQor q;
  for (const auto& c : op.cmps) {
    for (const flow::FlowResult* r : {&c.flat, &c.tmi}) {
      q.overflow_edges += r->routes.overflow_edges;
      q.wirelength_mm += r->total_wl_um / 1000.0;
      q.power_mw += r->total_uw / 1000.0;
    }
    q.tmi_power_pct += c.power_pct() / static_cast<double>(op.cmps.size());
  }
  return q;
}

}  // namespace perfbench
