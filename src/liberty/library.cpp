#include "liberty/library.hpp"

#include <algorithm>
#include <cassert>

#include "tech/scaling.hpp"

namespace m3d::liberty {

namespace {

/// Index of the grid interval containing x (clamped).
size_t interval(const std::vector<double>& axis, double x) {
  if (axis.size() < 2) return 0;
  size_t i = 0;
  while (i + 2 < axis.size() && x > axis[i + 1]) ++i;
  return i;
}

}  // namespace

double NldmTable::at(double slew, double load) const {
  assert(!value.empty());
  if (slew_ps.size() == 1 && load_ff.size() == 1) return value[0];
  const size_t si = interval(slew_ps, slew);
  const size_t li = interval(load_ff, load);
  const double s0 = slew_ps[si], s1 = slew_ps[std::min(si + 1, slew_ps.size() - 1)];
  const double l0 = load_ff[li], l1 = load_ff[std::min(li + 1, load_ff.size() - 1)];
  double fs = (s1 > s0) ? (slew - s0) / (s1 - s0) : 0.0;
  double fl = (l1 > l0) ? (load - l0) / (l1 - l0) : 0.0;
  // Clamp below the grid, extrapolate linearly above it (standard STA
  // behaviour for loads beyond the table).
  fs = std::max(0.0, fs);
  fl = std::max(0.0, fl);
  const size_t sj = std::min(si + 1, slew_ps.size() - 1);
  const size_t lj = std::min(li + 1, load_ff.size() - 1);
  const double v00 = cell(si, li), v01 = cell(si, lj);
  const double v10 = cell(sj, li), v11 = cell(sj, lj);
  const double v0 = v00 + fl * (v01 - v00);
  const double v1 = v10 + fl * (v11 - v10);
  return v0 + fs * (v1 - v0);
}

double LibCell::input_cap_ff(const std::string& pin) const {
  const auto it = pin_cap_ff.find(pin);
  return it == pin_cap_ff.end() ? 0.0 : it->second;
}

double LibCell::max_input_cap_ff() const {
  double c = 0.0;
  for (const auto& [pin, cap] : pin_cap_ff) c = std::max(c, cap);
  return c;
}

const TimingArc* LibCell::arc(const std::string& from,
                              const std::string& to) const {
  for (const auto& a : arcs) {
    if (a.from == from && a.to == to) return &a;
  }
  return nullptr;
}

double LibCell::worst_delay_ps(double slew, double load) const {
  double d = 0.0;
  for (const auto& a : arcs) d = std::max(d, a.worst_delay(slew, load));
  return d;
}

void Library::add(LibCell cell) {
  by_name_[cell.name] = cells_.size();
  cells_.push_back(std::move(cell));
}

const LibCell* Library::find(const std::string& cell_name) const {
  const auto it = by_name_.find(cell_name);
  return it == by_name_.end() ? nullptr : &cells_[it->second];
}

std::vector<const LibCell*> Library::variants(cells::Func func) const {
  std::vector<const LibCell*> out;
  for (const auto& c : cells_) {
    if (c.func == func) out.push_back(&c);
  }
  std::sort(out.begin(), out.end(), [](const LibCell* a, const LibCell* b) {
    return a->drive < b->drive;
  });
  return out;
}

const LibCell* Library::pick(cells::Func func, int min_drive) const {
  const LibCell* best = nullptr;
  const LibCell* largest = nullptr;
  for (const auto& c : cells_) {
    if (c.func != func) continue;
    if (largest == nullptr || c.drive > largest->drive) largest = &c;
    if (c.drive >= min_drive && (best == nullptr || c.drive < best->drive)) {
      best = &c;
    }
  }
  return best != nullptr ? best : largest;
}

const LibCell* Library::next_smaller(cells::Func func, int drive) const {
  const LibCell* best = nullptr;
  for (const auto& c : cells_) {
    if (c.func == func && c.drive < drive &&
        (best == nullptr || c.drive > best->drive)) {
      best = &c;
    }
  }
  return best;
}

Library scale_to_7nm(const Library& lib45) {
  const tech::ScaleFactors f = tech::itrs_7nm_factors();
  Library out;
  out.name = lib45.name + "_7nm";
  out.node = tech::Node::k7nm;
  out.style = lib45.style;
  out.vdd_v = lib45.vdd_v * f.vdd;

  auto scale_table = [&](NldmTable t, double value_factor,
                         double load_factor) {
    for (auto& s : t.slew_ps) s *= f.output_slew;
    for (auto& l : t.load_ff) l *= load_factor;
    for (auto& v : t.value) v *= value_factor;
    return t;
  };

  for (const LibCell& c45 : lib45.cells()) {
    LibCell c = c45;
    c.width_um *= f.geometry;
    c.height_um *= f.geometry;
    for (auto& [pin, cap] : c.pin_cap_ff) cap *= f.cell_input_cap;
    c.leakage_uw *= f.leakage;
    c.setup_ps *= f.cell_delay;
    c.hold_ps *= f.cell_delay;
    for (auto& arc : c.arcs) {
      for (int e = 0; e < 2; ++e) {
        arc.delay[e] = scale_table(arc.delay[e], f.cell_delay, f.cell_input_cap);
        arc.out_slew[e] =
            scale_table(arc.out_slew[e], f.output_slew, f.cell_input_cap);
        arc.energy[e] =
            scale_table(arc.energy[e], f.cell_power, f.cell_input_cap);
      }
    }
    out.add(std::move(c));
  }
  return out;
}

}  // namespace m3d::liberty
