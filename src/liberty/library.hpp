// NLDM-style timing/power library: lookup tables over (input slew, output
// load), per timing arc, plus pin capacitances and leakage — the same data
// model as the Liberty files the paper characterizes with Encounter Library
// Characterizer.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cells/func.hpp"
#include "tech/layers.hpp"
#include "tech/tech.hpp"

namespace m3d::liberty {

/// 2D lookup table: rows = input slew (ps), cols = output load (fF).
/// Bilinear interpolation, clamped at the grid edges.
struct NldmTable {
  std::vector<double> slew_ps;
  std::vector<double> load_ff;
  std::vector<double> value;  // row-major, slew-major

  double at(double slew, double load) const;
  bool empty() const { return value.empty(); }
  double& cell(size_t si, size_t li) { return value[si * load_ff.size() + li]; }
  double cell(size_t si, size_t li) const {
    return value[si * load_ff.size() + li];
  }
};

enum class Edge { kRise = 0, kFall = 1 };

/// One input->output timing arc. Index tables by the *output* edge.
struct TimingArc {
  std::string from;  // input pin (CK for the DFF clock arc)
  std::string to;    // output pin
  NldmTable delay[2];
  NldmTable out_slew[2];
  NldmTable energy[2];  // internal energy per output transition (fJ)

  double worst_delay(double slew, double load) const {
    return std::max(delay[0].at(slew, load), delay[1].at(slew, load));
  }
  double worst_slew(double slew, double load) const {
    return std::max(out_slew[0].at(slew, load), out_slew[1].at(slew, load));
  }
  double avg_energy(double slew, double load) const {
    return 0.5 * (energy[0].at(slew, load) + energy[1].at(slew, load));
  }
};

struct LibCell {
  std::string name;
  cells::Func func = cells::Func::kInv;
  int drive = 1;
  double width_um = 0.0;
  double height_um = 0.0;
  std::map<std::string, double> pin_cap_ff;  // input pins
  std::vector<TimingArc> arcs;
  double leakage_uw = 0.0;
  bool sequential = false;
  double setup_ps = 0.0;
  double hold_ps = 0.0;

  double area_um2() const { return width_um * height_um; }
  double input_cap_ff(const std::string& pin) const;
  /// Largest input pin cap — used for load estimates.
  double max_input_cap_ff() const;
  const TimingArc* arc(const std::string& from, const std::string& to) const;
  /// Worst delay over all arcs to `to` at the given corner.
  double worst_delay_ps(double slew, double load) const;
};

class Library {
 public:
  std::string name;
  tech::Node node = tech::Node::k45nm;
  tech::Style style = tech::Style::k2D;
  double vdd_v = 1.1;

  void add(LibCell cell);
  size_t size() const { return cells_.size(); }
  const LibCell* find(const std::string& name) const;
  const std::vector<LibCell>& cells() const { return cells_; }
  /// Cells implementing `func`, sorted by drive ascending.
  std::vector<const LibCell*> variants(cells::Func func) const;
  /// The smallest variant of `func` with drive >= min_drive (or the largest
  /// available if none reaches it). Null only if the func is absent.
  const LibCell* pick(cells::Func func, int min_drive = 1) const;
  /// The variant of `func` with the largest drive below `drive` (the first
  /// in library order on a drive tie), or null. Allocation-free, for sizing
  /// loops that would otherwise call variants() per instance.
  const LibCell* next_smaller(cells::Func func, int drive) const;

 private:
  std::vector<LibCell> cells_;
  std::unordered_map<std::string, size_t> by_name_;
};

/// Applies the paper's 45nm -> 7nm ITRS scaling to a characterized 45nm
/// library (supplement S3 methodology): delay x0.471, slew x0.420, internal
/// energy x0.084, leakage x0.678, pin cap x0.179, geometry x0.156; the load
/// axes shrink with pin cap so table indices stay in-range.
Library scale_to_7nm(const Library& lib45);

}  // namespace m3d::liberty
