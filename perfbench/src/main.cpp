// m3d_perfbench: the repository benchmark program (see perfbench/README.md).
//
//   m3d_perfbench --workload ldpc_iso|des_sweep|char_lib [--seed N]
//                 [--seconds S] [--trace 0|1]
//
// --trace 0 runs the workload's op in a closed loop with one client for
// about S seconds and prints the end-to-end metrics; --trace 1 runs one
// reference op and one traced op and prints the per-layer metrics. Either
// way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Human-readable lines before it start with '#'.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "measure.hpp"
#include "traced.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 20130529;  // DAC'13, the generators' default
// The host is shared: a pool as wide as nproc slows down whenever another
// tenant takes a core, so the pool gets half the cores, at most 2.
constexpr int kMaxThreads = 2;
// Set-up takes about a millisecond, and the host's speed at such short work
// drifts by half over a few seconds. So set-up is repeated before the first op
// and again after every op, and setup_s is the median over the whole run.
constexpr int kSetupReps = 5;

struct Args {
  Workload workload = Workload::kLdpcIso;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "m3d_perfbench: %s\nusage: m3d_perfbench --workload "
               "ldpc_iso|des_sweep|char_lib [--seed N] [--seconds S] "
               "[--trace 0|1]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = parse_workload(val);
      if (!w) usage(("unknown workload " + val).c_str());
      a.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

int thread_count() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw / 2, 1, kMaxThreads);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

using Metric = std::tuple<std::string, double, std::string>;  // name, value, unit

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + json_number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Timed run: the op in a closed loop for about `seconds` (at least one
/// timed op), then the end-to-end metrics. The flows first make one untimed
/// warm-up op: the first flow op of a process runs slower while the allocator
/// grows (the first DES sweep takes about 50% longer). Its outputs are checked
/// like every other op's and are the reference the later ops must equal.
/// char_lib's op is long enough that its cold start is a small share of it.
int run_timed(const Args& a, int threads) {
  std::vector<double> setup_s;
  AnalyticLibs libs;
  // Each repetition replaces the pool and the libraries with identical ones.
  auto repeat_set_up = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const double t0 = wall_s();
      libs = set_up(threads);
      setup_s.push_back(wall_s() - t0);
    }
  };
  repeat_set_up();

  const auto cfgs = flow_configs(a.workload, a.seed, libs);
  const long warmup_ops = is_flow(a.workload) ? 1 : 0;
  Reference ref;
  std::vector<double> op_wall, op_cpu;
  long ops = 0, hard_failed = 0, items = 0, closure_failed = 0;
  long points = 0, points_failed = 0;
  FlowQor qor;  // of the last op; every op's must equal op 1's anyway
  int flows_per_op = 0;
  // In-process RSS keeps growing over the first several ops (26 -> 70 MB over
  // ~7 DES comparisons), so peak RSS is read after op 1, which every run
  // makes, to keep it independent of how many ops fit in the window.
  double peak_mb = 0.0;
  double start = wall_s();
  for (;;) {
    const double w0 = wall_s(), c0 = process_cpu_s();
    double w1 = 0.0, c1 = 0.0;
    Verdict v;
    try {
      if (is_flow(a.workload)) {
        const FlowOp op = run_flow_op(cfgs, libs, in_flight(a.workload));
        w1 = wall_s();
        c1 = process_cpu_s();
        v = ref.check(op);
        qor = flow_qor(op);
        flows_per_op = std::max(flows_per_op, op.flows);
        if (ops == 0) {
          for (size_t i = 0; i < op.cmps.size(); ++i) {
            const auto& c = op.cmps[i];
            std::printf("# comparison of design seed %llu at %.2f ns: final clock %.4f ns, "
                        "2D %s (wns %+.0f ps)/%s, T-MI %s/%s\n",
                        static_cast<unsigned long long>(cfgs[i].seed), cfgs[i].clock_ns,
                        c.flat.clock_ns,
                        c.flat.timing_met ? "met" : "MISSED", c.flat.wns_ps,
                        c.flat.routed ? "routed" : "UNROUTED",
                        c.tmi.timing_met ? "met" : "MISSED",
                        c.tmi.routed ? "routed" : "UNROUTED");
          }
        }
      } else {
        const CharOp op = run_char_op();
        w1 = wall_s();
        c1 = process_cpu_s();
        v = ref.check(op, libs);
        points += op.points.attempted;
        points_failed += op.points.failed;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "m3d_perfbench: op %ld threw: %s\n", ops + 1, e.what());
      v.mismatch = true;
      if (w1 == 0.0) {
        w1 = wall_s();
        c1 = process_cpu_s();
      }
    }
    ++ops;
    if (ops == 1) peak_mb = peak_rss_mb();
    const bool failed = v.error_checks || v.mismatch;
    items += v.items;
    // The wider failed_frac of the # lines: a comparison also fails with its op.
    closure_failed += failed ? v.items : v.closure_failed;
    hard_failed += failed ? 1 : 0;
    repeat_set_up();
    const bool warmup = ops <= warmup_ops;
    std::printf("# op %ld%s: %.3f s wall, %.3f s cpu%s%s\n", ops, warmup ? " (warm-up)" : "",
                w1 - w0, c1 - c0, v.error_checks ? ", ERROR-SEVERITY CHECK VIOLATION" : "",
                v.mismatch ? ", OUTPUT DIFFERS FROM OP 1" : "");
    if (warmup) {
      start = wall_s();
      continue;
    }
    op_wall.push_back(w1 - w0);
    op_cpu.push_back(c1 - c0);
    // Start no op that would end further past the window than short of it,
    // so a run lasts about `seconds` whatever the op length.
    if (wall_s() - start + 0.5 * median(op_wall) >= a.seconds) break;
  }

  double wall_total = 0.0;
  for (double t : op_wall) wall_total += t;
  // Every op has the same items, the warm-up op's too.
  const double items_per_s =
      wall_total > 0.0 ? static_cast<double>(items) / ops * op_wall.size() / wall_total : 0.0;
  const double med_wall = median(op_wall), med_cpu = median(op_cpu);
  const double setup_med = median(setup_s);

  // The metrics under the names the workload's users know them by, with the
  // QoR guards and the paper's tmi_power_pct beside them.
  const char* w = to_string(a.workload);
  std::printf("# %s: %zu timed ops in %.1f s; op wall median %.3f s (min %.3f, max %.3f)\n",
              w, op_wall.size(), wall_s() - start, med_wall,
              *std::min_element(op_wall.begin(), op_wall.end()),
              *std::max_element(op_wall.begin(), op_wall.end()));
  switch (a.workload) {
    case Workload::kLdpcIso:
      std::printf("# iso_wall_s %.4f s\n# iso_cpu_s %.4f s\n", med_wall, med_cpu);
      break;
    case Workload::kDesSweep:
      std::printf("# sweep_cmp_per_s %.4f 1/s\n", items_per_s);
      break;
    case Workload::kCharLib:
      std::printf("# char_cells_per_s %.4f 1/s\n", items_per_s);
      break;
  }
  std::printf("# setup_s %.6f s\n# peak_rss_mb %.1f MB\n", setup_med, peak_mb);
  if (is_flow(a.workload)) {
    std::printf("# failed_frac %.4f (%ld of %ld comparisons missed timing or routing, "
                "or failed a check)\n",
                items ? static_cast<double>(closure_failed) / items : 0.0, closure_failed,
                items);
    std::printf("# overflow_edges %.0f\n# wirelength_mm %.3f mm\n# power_mw %.4f mW\n"
                "# tmi_power_pct %+.2f %% (ungated)\n# flow.runs %d per op (%zu comparisons)\n",
                qor.overflow_edges, qor.wirelength_mm, qor.power_mw, qor.tmi_power_pct,
                flows_per_op, cfgs.size());
  } else {
    std::printf("# failed_frac %.6f (%ld of %ld sweep points failed)\n",
                points ? static_cast<double>(points_failed) / points : 0.0,
                points_failed, points);
  }

  // Wall time is printed above but not gated: on a shared host the wall time
  // of an op on the pool tracks the host's load (a ten-seed spread of 0.32 of
  // the median on des_sweep, where CPU time spread 0.14), while process CPU
  // time counts the program's own work.
  print_result(hard_failed == 0, ops, hard_failed,
               {{"op_cpu_s", med_cpu, "s"},
                {"setup_s", setup_med, "s"},
                {"peak_rss_mb", peak_mb, "MB"}});
  return 0;
}

/// Traced run: per-layer metrics from one reference op and one traced op.
int run_trace(const Args& a, int threads) {
  const TracedRun run = run_traced(a.workload, a.seed, set_up(threads));
  if (!run.faithful) {
    std::printf("# FAITHFULNESS GUARD FAILED: %s\n", run.mismatch.c_str());
  }
  const bool ref_failed = run.reference.error_checks || run.reference.mismatch;
  std::vector<Metric> metrics;
  for (const auto& [name, value] : run.metrics) {
    const std::string& unit = per_layer_units().at(name);
    metrics.emplace_back(name, value, unit);
    std::printf("# %-28s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
  print_result(run.faithful && !ref_failed, 2, (run.faithful ? 0 : 1) + (ref_failed ? 1 : 0),
               metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  // A store hit replays gen/synth/place instead of running them, and a trace
  // window adds collection work: neither may leak into a measurement.
  for (const char* var : {"M3D_STORE", "M3D_TRACE"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') {
      std::fprintf(stderr, "m3d_perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  // The char_lib failure count reads the characterizer's warnings.
  m3d::util::set_log_level(m3d::util::LogLevel::kWarn);

  const int threads = thread_count();
#ifdef NDEBUG
  const bool debug_build = false;
#else
  const bool debug_build = true;
#endif
  std::printf("# host: nproc=%u threads=%d compiler=\"%s\" build=%s%s seed=%llu "
              "workload=%s seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), threads, __VERSION__,
              PERFBENCH_BUILD_TYPE, debug_build ? " (ASSERTIONS ON: not comparable)" : "",
              static_cast<unsigned long long>(a.seed), to_string(a.workload), a.seconds,
              a.trace ? 1 : 0);
  try {
    return a.trace ? run_trace(a, threads) : run_timed(a, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m3d_perfbench: %s\n", e.what());
    return 1;
  }
}
