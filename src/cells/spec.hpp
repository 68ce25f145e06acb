// Transistor-level cell specification: the SPICE-level content of one
// standard cell, before any layout. Cells are generated from series/parallel
// pull-up / pull-down networks (plus hand-built transmission-gate structures
// for MUX2 and DFF), mirroring the topology of the Nangate 45nm cells the
// paper folds.
#pragma once

#include <string>
#include <vector>

#include "cells/func.hpp"

namespace m3d::cells {

struct CellTransistor {
  bool pmos = false;
  double w_um = 0.0;
  std::string gate;
  std::string drain;
  std::string source;
};

struct CellSpec {
  std::string name;        // e.g. "NAND2_X2"
  Func func = Func::kInv;
  int drive = 1;           // X1 / X2 / X4 / X8
  std::vector<CellTransistor> transistors;

  const std::vector<std::string>& inputs() const { return input_pins(func); }
  const std::vector<std::string>& outputs() const { return output_pins(func); }
  bool sequential() const { return is_sequential(func); }

  /// All distinct net names, rails first ("VDD", "VSS"), then pins, then
  /// internal nets in first-use order.
  std::vector<std::string> nets() const;
  /// True if `net` is an internal net (not a rail, not a pin).
  bool is_internal(const std::string& net) const;

  int num_pmos() const;
  int num_nmos() const;
  double total_width_um() const;
};

/// Builds the transistor network for (func, drive). Drive multiplies the
/// output-stage widths; base widths follow Nangate X1 (PMOS 0.63um /
/// NMOS 0.415um) with series-stack width compensation.
CellSpec make_spec(Func func, int drive);

/// Canonical cell name, e.g. "AOI21_X2".
std::string cell_name(Func func, int drive);

/// The drive strengths offered per function in the NangateLite library;
/// the full library is the cross product (66 cells).
std::vector<int> drive_options(Func func);

}  // namespace m3d::cells
