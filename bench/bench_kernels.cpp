// google-benchmark microbenchmarks of the library's computational kernels:
// transient simulation, placement CG, maze routing, STA propagation, power
// analysis, cell folding/extraction — plus parallel variants of the three
// exec-wired kernels (characterization sweep, STA propagation, batched maze
// routing) swept over 1/2/4/8 threads. Results are also dumped to
// out_figs/bench_kernels.json so later PRs can track the speedup trajectory.
#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "cells/layout.hpp"
#include "exec/exec.hpp"
#include "extract/extract.hpp"
#include "gen/gen.hpp"
#include "liberty/characterize.hpp"
#include "numeric/csr.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "spice/mosfet.hpp"
#include "spice/sim.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "../tests/test_fixtures.hpp"

using namespace m3d;

namespace {

void BM_SpiceInverterTransient(benchmark::State& state) {
  spice::Circuit c;
  const int vdd = c.node("vdd");
  const int in = c.node("in");
  const int out = c.node("out");
  c.add_mosfet(out, in, vdd, 0.63, spice::ptm45_pmos());
  c.add_mosfet(out, in, 0, 0.415, spice::ptm45_nmos());
  c.add_capacitor(out, 0, 3.2);
  c.add_source(vdd, spice::Pwl::dc(1.1));
  c.add_source(in, spice::Pwl::ramp(50.0, 37.5, 0.0, 1.1));
  spice::TranOptions opt;
  opt.t_stop_ps = 400.0;
  opt.dt_ps = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::simulate(c, opt));
  }
}
BENCHMARK(BM_SpiceInverterTransient);

void BM_CellFoldAndExtract(benchmark::State& state) {
  const cells::CellSpec dff = cells::make_spec(cells::Func::kDff, 1);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::kTMI);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cells::fold_tmi(dff, tch));
  }
}
BENCHMARK(BM_CellFoldAndExtract);

struct FlowFixture {
  liberty::Library lib = test::make_test_library();
  circuit::Netlist nl;
  place::Die die;
  tech::Tech tch{tech::Node::k45nm, tech::Style::k2D};

  FlowFixture() {
    gen::GenOptions o;
    o.scale_shift = 3;
    nl = gen::make_des(o);
    nl.bind(lib);
    die = place::make_die(&nl, 0.8, 1.4);
    place::place_design(&nl, die, {});
  }
};

FlowFixture& fixture() {
  static FlowFixture f;
  return f;
}

void BM_NetlistGenerationDes(benchmark::State& state) {
  gen::GenOptions o;
  o.scale_shift = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::make_des(o));
  }
}
BENCHMARK(BM_NetlistGenerationDes);

void BM_GlobalPlacement(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    auto nl = f.nl;
    place::place_design(&nl, f.die, {});
    benchmark::DoNotOptimize(nl);
  }
}
BENCHMARK(BM_GlobalPlacement)->Unit(benchmark::kMillisecond);

void BM_GlobalRouting(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::global_route(f.nl, f.die, f.tch, {}));
  }
}
BENCHMARK(BM_GlobalRouting)->Unit(benchmark::kMillisecond);

void BM_StaFullPass(benchmark::State& state) {
  auto& f = fixture();
  const auto par = extract::extract_from_placement(f.nl, f.tch);
  sta::StaOptions opt;
  opt.clock_ns = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta::run_sta(f.nl, par, opt));
  }
}
BENCHMARK(BM_StaFullPass)->Unit(benchmark::kMillisecond);

void BM_PowerAnalysis(benchmark::State& state) {
  auto& f = fixture();
  const auto par = extract::extract_from_placement(f.nl, f.tch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::run_power(f.nl, par, nullptr, {}));
  }
}
BENCHMARK(BM_PowerAnalysis)->Unit(benchmark::kMillisecond);

void BM_ParasiticExtraction(benchmark::State& state) {
  auto& f = fixture();
  const auto routes = route::global_route(f.nl, f.die, f.tch, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract::extract_from_routes(f.nl, f.tch, routes));
  }
}
BENCHMARK(BM_ParasiticExtraction)->Unit(benchmark::kMillisecond);

// --- Incremental place/route cost kernels. --------------------------------
//
// The fixture runs M256 at the default paper-bench scale (scale_shift 1,
// the size the flow actually uses) — the largest benchmark, and with ~770
// ports the one where a rescan-every-port HPWL loop would hurt most.

struct DetailFixture {
  liberty::Library lib = test::make_test_library();
  circuit::Netlist nl;
  place::Die die;
  place::SpreadPlacement spread;

  DetailFixture() {
    gen::GenOptions o;
    o.scale_shift = 1;  // flow::default_scale_shift(kM256)
    nl = gen::make_m256(o);
    nl.bind(lib);
    die = place::make_die(&nl, 0.68, 1.4);  // paper: M256 at 68% util
    spread = place::global_spread(&nl, die, {});
    place::legalize(&nl, die, spread);
  }
};

DetailFixture& detail_fixture() {
  static DetailFixture f;
  return f;
}

// Pre-route extraction, once per optimizer round: on M256 the ~770 ports
// are where a per-net port rescan would dominate.
void BM_ExtractPlacement(benchmark::State& state) {
  auto& f = detail_fixture();
  const tech::Tech tch{tech::Node::k45nm, tech::Style::k2D};
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract::extract_from_placement(f.nl, tch));
  }
}
BENCHMARK(BM_ExtractPlacement)->Unit(benchmark::kMillisecond);

void BM_PlaceDetail(benchmark::State& state) {
  auto& f = detail_fixture();
  for (auto _ : state) {
    state.PauseTiming();  // the netlist copy is setup, not the kernel
    auto nl = f.nl;
    state.ResumeTiming();
    place::detail_place(&nl, f.die, 2);
    benchmark::DoNotOptimize(nl);
  }
}
BENCHMARK(BM_PlaceDetail)->Unit(benchmark::kMillisecond);

void BM_PlaceLegalize(benchmark::State& state) {
  auto& f = detail_fixture();
  for (auto _ : state) {
    auto nl = f.nl;
    place::legalize(&nl, f.die, f.spread);
    benchmark::DoNotOptimize(nl);
  }
}
BENCHMARK(BM_PlaceLegalize)->Unit(benchmark::kMillisecond);

void BM_RouteMazeCongested(benchmark::State& state) {
  auto& f = fixture();
  route::RouteOptions ro;
  ro.local_blockage_frac = 0.6;  // starve local tracks so RRR mazes run
  ro.rrr_iters = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::global_route(f.nl, f.die, f.tch, ro));
  }
}
BENCHMARK(BM_RouteMazeCongested)->Unit(benchmark::kMillisecond);

// --- Numeric kernel layer (src/numeric). --------------------------------
//
// spice.newton_step: a transient run of the largest characterization
// circuit (DFF_X4 with output load) — the Newton loop is assemble + factor
// + two triangular solves per step, so the sparse-vs-dense ratio here is
// the per-step linear-algebra win at characterization scale. The dense
// baseline is the pre-port O(n^3)-per-step path, still selectable through
// TranOptions::solver.

spice::Circuit make_char_circuit(cells::Func func, int drive, int* load_idx,
                                 int* in_src_idx) {
  const cells::CellSpec spec = cells::make_spec(func, drive);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const cells::CellLayout layout = cells::layout_2d(spec, tch);
  spice::Circuit ckt =
      liberty::make_cell_circuit(spec, layout, cells::SiliconModel::kDielectric);
  const std::string out = spec.outputs().front();
  if (load_idx != nullptr) {
    *load_idx = static_cast<int>(ckt.capacitors().size());
  }
  ckt.add_capacitor(ckt.find_node(out), 0, 3.2);
  ckt.add_source(ckt.find_node("VDD"), spice::Pwl::dc(1.1));
  bool first = true;
  for (const std::string& pin : spec.inputs()) {
    if (first && in_src_idx != nullptr) {
      *in_src_idx = static_cast<int>(ckt.sources().size());
    }
    ckt.add_source(ckt.find_node(pin),
                   first ? spice::Pwl::ramp(40.0, 37.5, 0.0, 1.1)
                         : spice::Pwl::dc(1.1));
    first = false;
  }
  return ckt;
}

void BM_SpiceNewtonStep(benchmark::State& state, spice::SolverKind kind) {
  const spice::Circuit ckt =
      make_char_circuit(cells::Func::kDff, 4, nullptr, nullptr);
  spice::TranOptions opt;
  opt.t_stop_ps = 400.0;
  opt.dt_ps = 0.5;
  opt.solver = kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::simulate(ckt, opt));
  }
}
void BM_SpiceNewtonStepSparse(benchmark::State& state) {
  BM_SpiceNewtonStep(state, spice::SolverKind::kSparse);
}
void BM_SpiceNewtonStepDense(benchmark::State& state) {
  BM_SpiceNewtonStep(state, spice::SolverKind::kDense);
}
BENCHMARK(BM_SpiceNewtonStepSparse)
    ->Name("spice.newton_step")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpiceNewtonStepDense)
    ->Name("spice.newton_step_dense")->Unit(benchmark::kMillisecond);

// numeric.spmv: y = A x on a placement-connectivity-shaped matrix (2000
// rows, ~8 nonzeros per row), the product CG iterations and residual checks
// run everywhere.

numeric::Csr make_spmv_matrix(int n, int nnz_per_row) {
  util::Rng rng(7);
  numeric::CsrBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    b.add(i, i, 8.0 + rng.uniform());
    for (int k = 1; k < nnz_per_row; ++k) {
      b.add(i, static_cast<int>(rng.below(static_cast<uint64_t>(n))),
            rng.uniform(-1.0, 1.0));
    }
  }
  return b.build();
}

void BM_NumericSpmv(benchmark::State& state) {
  const numeric::Csr a = make_spmv_matrix(2000, 8);
  std::vector<double> x(2000, 1.0), y(2000);
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_NumericSpmv)->Name("numeric.spmv");

// char.arc_sweep: one NAND2 timing-arc sweep (3 slews x 3 loads x 2 edges)
// in the characterizer's template shape — circuit built once, SimContext
// prepared once, per-point clones only rewrite element values.

void BM_CharArcSweep(benchmark::State& state) {
  int load_idx = -1, in_src = -1;
  const spice::Circuit tmpl =
      make_char_circuit(cells::Func::kNand2, 1, &load_idx, &in_src);
  spice::SimContext ctx;
  ctx.prepare(tmpl);
  const double slews[] = {7.5, 37.5, 150.0};
  const double loads[] = {0.8, 3.2, 12.8};
  for (auto _ : state) {
    for (double slew : slews) {
      for (double load : loads) {
        for (bool rise : {false, true}) {
          spice::Circuit ckt = tmpl;
          ckt.set_capacitor_ff(static_cast<size_t>(load_idx), load);
          ckt.set_source_wave(static_cast<size_t>(in_src),
                              spice::Pwl::ramp(40.0, slew, rise ? 0.0 : 1.1,
                                               rise ? 1.1 : 0.0));
          spice::TranOptions opt;
          opt.t_stop_ps = 40.0 + 4.0 * slew + 40.0 * (load / 3.2) + 160.0;
          opt.dt_ps = std::max(0.02, std::min(slew / 12.0, opt.t_stop_ps / 2500.0));
          benchmark::DoNotOptimize(spice::simulate(ckt, opt, &ctx));
        }
      }
    }
  }
}
BENCHMARK(BM_CharArcSweep)
    ->Name("char.arc_sweep")->Unit(benchmark::kMillisecond);

// --- Parallel kernel variants (Arg = exec pool thread count). ------------
//
// All three produce bit-identical results at every thread count (the exec
// contract); what the sweep measures is pure wall-clock scaling.

void BM_CharSweepParallel(benchmark::State& state) {
  exec::set_default_threads(static_cast<int>(state.range(0)));
  const cells::CellSpec spec = cells::make_spec(cells::Func::kNand2, 1);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const cells::CellLayout layout = cells::layout_2d(spec, tch);
  liberty::CharOptions copt;
  // Denser grid than the library default: 6x6 x 2 arcs = 72 independent
  // SPICE points, enough work to feed 8 workers.
  copt.slews_ps = {5.0, 10.0, 20.0, 40.0, 80.0, 160.0};
  copt.loads_ff = {0.4, 0.8, 1.6, 3.2, 6.4, 12.8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(liberty::characterize_cell(spec, layout, 1.1, copt));
  }
  exec::set_default_threads(0);
}
BENCHMARK(BM_CharSweepParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_StaPropagationParallel(benchmark::State& state) {
  exec::set_default_threads(static_cast<int>(state.range(0)));
  auto& f = fixture();
  const auto par = extract::extract_from_placement(f.nl, f.tch);
  sta::StaOptions opt;
  opt.clock_ns = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta::run_sta(f.nl, par, opt));
  }
  exec::set_default_threads(0);
}
BENCHMARK(BM_StaPropagationParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MazeBatchParallel(benchmark::State& state) {
  exec::set_default_threads(static_cast<int>(state.range(0)));
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::global_route(f.nl, f.die, f.tch, {}));
  }
  exec::set_default_threads(0);
}
BENCHMARK(BM_MazeBatchParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every run captured for the JSON dump.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_time = 0.0;
    double cpu_time = 0.0;
    std::string time_unit;
    int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      e.real_time = run.GetAdjustedRealTime();
      e.cpu_time = run.GetAdjustedCPUTime();
      e.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      e.iterations = run.iterations;
      entries.push_back(std::move(e));
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  std::vector<Entry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  using util::json::Value;
  Value doc = Value::object();
  doc.set("schema", Value::str("m3d.bench_kernels/v1"));
  Value benches = Value::array();
  for (const auto& e : reporter.entries) {
    Value b = Value::object();
    b.set("name", Value::str(e.name));
    b.set("real_time", Value::number(e.real_time));
    b.set("cpu_time", Value::number(e.cpu_time));
    b.set("time_unit", Value::str(e.time_unit));
    b.set("iterations", Value::number(static_cast<double>(e.iterations)));
    benches.push(std::move(b));
  }
  doc.set("benchmarks", std::move(benches));
  ::mkdir("out_figs", 0755);
  std::ofstream os("out_figs/bench_kernels.json");
  if (os) {
    os << doc.dump() << '\n';
    std::fprintf(stderr, "wrote out_figs/bench_kernels.json (%zu entries)\n",
                 reporter.entries.size());
  } else {
    std::fprintf(stderr, "could not write out_figs/bench_kernels.json\n");
  }
  return 0;
}
