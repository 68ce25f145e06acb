// The traced run: one untraced reference op, then the same op composed from
// the layers' public calls with a span around each call. Spans are recorded
// by the benchmark itself (nothing inside src/ changes) and kept in memory
// until the run ends; per-layer metrics are derived from them.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct TracedRun {
  /// The composed op reproduced the reference op exactly (netlist and
  /// placement hashes and every QoR field for the flows, the library
  /// fingerprints for char_lib). When false, `mismatch` says where.
  bool faithful = false;
  std::string mismatch;
  /// The reference op's own result checks.
  Verdict reference;
  /// Per-layer metrics, keyed by the names BENCHMARK.json lists (see
  /// per_layer_units()).
  std::map<std::string, double> metrics;
};

TracedRun run_traced(Workload w, uint64_t seed, const AnalyticLibs& libs);

/// Unit of every per-layer metric, by name. Every workload reports all of
/// them; a metric the workload does not exercise reads 0.
const std::map<std::string, std::string>& per_layer_units();

}  // namespace perfbench
