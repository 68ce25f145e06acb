// The benchmark's three workloads and the checks on their outputs.
//
//   ldpc_iso   two LDPC iso-comparisons (two designs, one after the other,
//              each 2D || T-MI on the pool) at quarter paper scale,
//              utilization 0.33 and a fixed 5.3 ns clock: route- and
//              congestion-bound.
//   des_sweep  a Fig-4-style DES clock sweep at paper scale (1.4/1.6/1.8/2.0
//              ns), the four comparisons in flight together on the pool:
//              opt+STA-bound, every flow routes clean (route bypass). The
//              sweep starts at 1.4 ns because at 1.2 ns some seeds relax the
//              clock and rerun flows, which makes the work depend on the seed.
//   char_lib   build_library_45nm for 2D and T-MI: the only workload on
//              cells/spice/numeric/liberty; the flow layers are idle.
//
// The flow workloads run against the analytic test library, so they never
// wait on SPICE characterization; char_lib is where SPICE is measured.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "liberty/library.hpp"

namespace perfbench {

enum class Workload { kLdpcIso, kDesSweep, kCharLib };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);
bool is_flow(Workload w);

/// The analytic 2D and T-MI libraries (tests/test_fixtures.hpp). The flow
/// workloads run against them; char_lib checks its cell inventory against
/// them.
struct AnalyticLibs {
  m3d::liberty::Library flat, tmi;
};

/// Set-up before the first timed op, timed as setup_s: the pool of
/// `threads` workers and the analytic libraries.
AnalyticLibs set_up(int threads);

/// The run_iso_comparison options of one flow op (2 for ldpc_iso, 4 for
/// des_sweep): the 2D library, the T-MI style, a fixed clock and
/// check_level full.
std::vector<m3d::flow::FlowOptions> flow_configs(Workload w, uint64_t seed,
                                                 const AnalyticLibs& libs);

/// Whether the workload's comparisons run in flight together on the pool
/// (des_sweep, as bench::compare_cached_all fans out) or one after another
/// (ldpc_iso, so each comparison has the pool to its own 2D || T-MI).
bool in_flight(Workload w);

/// One untraced flow op: every config's run_iso_comparison, in flight
/// together on the pool when `together` is set, else one after another.
/// `flows` counts the run_flow calls, so clock-relaxation reruns show as work.
struct FlowOp {
  std::vector<m3d::flow::CompareResult> cmps;
  int flows = 0;
};
FlowOp run_flow_op(const std::vector<m3d::flow::FlowOptions>& cfgs,
                   const AnalyticLibs& libs, bool together);

/// Characterizer sweep-point accounting, counted from outside the library:
/// `attempted` from the arcs of the produced cells, `failed` from the
/// characterizer's "char: ... failed at" warnings.
struct PointCount {
  long attempted = 0;
  long failed = 0;
};
long sweep_points(const m3d::liberty::LibCell& cell);
long failed_points(const std::string& log_text);
/// Re-emits captured log lines that are not sweep-point failures.
void forward_other_lines(const std::string& log_text);

/// One untraced char_lib op: the 2D and the T-MI library.
struct CharOp {
  m3d::liberty::Library flat, tmi;
  PointCount points;
};
CharOp run_char_op();

/// Result-level checks shared by the timed and the traced runs.
struct Verdict {
  int items = 0;            // comparisons (flows) or cells (char_lib)
  int closure_failed = 0;   // comparisons that missed timing or routing
  bool error_checks = false;  // an error-severity check violation, or a
                              // library whose cell inventory is wrong
  bool mismatch = false;    // output differs from the first op's
};

/// Compares every op with the first op of the same configuration, byte for
/// byte: canonical run reports for the flows, library fingerprints for
/// char_lib. Characterized libraries must also pass check::check_library and
/// hold the cell inventory of `expected` (same cells in the same order, with
/// the same function, drive, sequential flag and input pins, each with at
/// least one timing arc).
class Reference {
 public:
  Verdict check(const FlowOp& op);
  Verdict check(const CharOp& op, const AnalyticLibs& expected);

 private:
  std::vector<std::string> reports_;
  std::vector<uint64_t> libs_;
};

/// QoR of a flow op, summed over every comparison and both styles.
struct FlowQor {
  double overflow_edges = 0.0;
  double wirelength_mm = 0.0;
  double power_mw = 0.0;
  double tmi_power_pct = 0.0;  // mean over the op's comparisons
};
FlowQor flow_qor(const FlowOp& op);

}  // namespace perfbench
