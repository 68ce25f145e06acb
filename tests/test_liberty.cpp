#include <gtest/gtest.h>

#include <cstdio>

#include "liberty/characterize.hpp"
#include "liberty/io.hpp"
#include "liberty/library.hpp"
#include "test_fixtures.hpp"

namespace m3d::liberty {
namespace {

NldmTable make_table() {
  NldmTable t;
  t.slew_ps = {10.0, 100.0};
  t.load_ff = {1.0, 10.0};
  t.value = {1.0, 2.0, 3.0, 4.0};  // rows: slew, cols: load
  return t;
}

TEST(Nldm, ExactCorners) {
  const NldmTable t = make_table();
  EXPECT_DOUBLE_EQ(t.at(10, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.at(10, 10), 2.0);
  EXPECT_DOUBLE_EQ(t.at(100, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.at(100, 10), 4.0);
}

TEST(Nldm, BilinearInterior) {
  const NldmTable t = make_table();
  EXPECT_NEAR(t.at(55, 5.5), 2.5, 1e-9);
}

TEST(Nldm, ClampsBelowExtrapolatesAbove) {
  const NldmTable t = make_table();
  EXPECT_DOUBLE_EQ(t.at(1, 0.1), 1.0);  // clamp below
  // Linear extrapolation above the load axis: slope (2-1)/9 per fF.
  EXPECT_NEAR(t.at(10, 19), 3.0, 1e-9);
}

TEST(Nldm, SingleEntryTable) {
  NldmTable t;
  t.slew_ps = {1.0};
  t.load_ff = {1.0};
  t.value = {7.5};
  EXPECT_DOUBLE_EQ(t.at(123, 456), 7.5);
}

TEST(Library, PickSmallestSatisfying) {
  const Library lib = test::make_test_library();
  const LibCell* c = lib.pick(cells::Func::kInv, 3);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->drive, 4);
  // Beyond the largest: clamps to largest.
  EXPECT_EQ(lib.pick(cells::Func::kInv, 100)->drive, 8);
  EXPECT_EQ(lib.pick(cells::Func::kInv, 1)->drive, 1);
}

TEST(Library, VariantsSortedByDrive) {
  const Library lib = test::make_test_library();
  const auto v = lib.variants(cells::Func::kNand2);
  ASSERT_EQ(v.size(), 4u);
  for (size_t i = 1; i < v.size(); ++i) EXPECT_GT(v[i]->drive, v[i - 1]->drive);
}

TEST(Library, NextSmallerMatchesVariantsScan) {
  const Library lib = test::make_test_library();
  std::vector<cells::Func> funcs = cells::all_comb_funcs();
  funcs.push_back(cells::Func::kDff);
  for (cells::Func f : funcs) {
    const auto v = lib.variants(f);
    ASSERT_FALSE(v.empty()) << cells::to_string(f);
    // Every drive in the library, plus one past each end.
    std::vector<int> drives = {v.front()->drive - 1, v.back()->drive + 1};
    for (const LibCell* c : v) drives.push_back(c->drive);
    for (int drive : drives) {
      // The scan the optimizer's downsizing loop used to run per instance.
      const LibCell* want = nullptr;
      for (const LibCell* c : v) {
        if (c->drive < drive && (want == nullptr || c->drive > want->drive)) {
          want = c;
        }
      }
      EXPECT_EQ(lib.next_smaller(f, drive), want)
          << cells::to_string(f) << " X" << drive;
    }
  }
  EXPECT_EQ(lib.next_smaller(cells::Func::kInv, 1), nullptr);
  EXPECT_EQ(lib.next_smaller(cells::Func::kInv, 4)->drive, 2);
}

TEST(Library, FindByName) {
  const Library lib = test::make_test_library();
  ASSERT_NE(lib.find("DFF_X2"), nullptr);
  EXPECT_EQ(lib.find("DFF_X2")->func, cells::Func::kDff);
  EXPECT_EQ(lib.find("NOPE"), nullptr);
}

TEST(Library, ScaleTo7nmAppliesPaperFactors) {
  const Library lib45 = test::make_test_library();
  const Library lib7 = scale_to_7nm(lib45);
  EXPECT_EQ(lib7.node, tech::Node::k7nm);
  EXPECT_NEAR(lib7.vdd_v, 0.7, 1e-9);
  const LibCell* c45 = lib45.find("INV_X1");
  const LibCell* c7 = lib7.find("INV_X1");
  ASSERT_NE(c7, nullptr);
  EXPECT_NEAR(c7->width_um / c45->width_um, 7.0 / 45.0, 1e-9);
  EXPECT_NEAR(c7->pin_cap_ff.at("A") / c45->pin_cap_ff.at("A"), 0.179, 1e-9);
  EXPECT_NEAR(c7->leakage_uw / c45->leakage_uw, 0.678, 1e-9);
  // Delay entries scale by 0.471 at matching (scaled) corners.
  const auto& a45 = c45->arcs[0].delay[0];
  const auto& a7 = c7->arcs[0].delay[0];
  EXPECT_NEAR(a7.value[0] / a45.value[0], 0.471, 1e-9);
  EXPECT_NEAR(a7.load_ff[1] / a45.load_ff[1], 0.179, 1e-9);
}

TEST(LibraryIo, RoundTrip) {
  const Library lib = test::make_test_library(tech::Style::kTMI);
  const std::string path = "/tmp/m3d_test_lib.mlib";
  ASSERT_TRUE(write_library(path, lib));
  Library in;
  ASSERT_TRUE(read_library(path, &in));
  EXPECT_EQ(in.size(), lib.size());
  EXPECT_EQ(in.style, tech::Style::kTMI);
  EXPECT_DOUBLE_EQ(in.vdd_v, lib.vdd_v);
  const LibCell* a = lib.find("MUX2_X2");
  const LibCell* b = in.find("MUX2_X2");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->arcs.size(), b->arcs.size());
  EXPECT_DOUBLE_EQ(a->arcs[0].delay[0].at(50, 4), b->arcs[0].delay[0].at(50, 4));
  EXPECT_DOUBLE_EQ(a->pin_cap_ff.at("S"), b->pin_cap_ff.at("S"));
  std::remove(path.c_str());
}

TEST(LibraryIo, MissingFileFails) {
  Library lib;
  EXPECT_FALSE(read_library("/tmp/does_not_exist.mlib", &lib));
}

// A single real characterization as an integration check (fast: INV only).
TEST(Characterize, InvProducesMonotoneDelayTables) {
  const cells::CellSpec spec = cells::make_spec(cells::Func::kInv, 1);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const cells::CellLayout layout = cells::layout_2d(spec, tch);
  const LibCell cell = characterize_cell(spec, layout, 1.1);
  ASSERT_EQ(cell.arcs.size(), 1u);
  const auto& arc = cell.arcs[0];
  EXPECT_EQ(arc.from, "A");
  EXPECT_EQ(arc.to, "Z");
  // Delay grows with load at fixed slew and with slew at fixed load.
  for (int e = 0; e < 2; ++e) {
    EXPECT_LT(arc.delay[e].at(7.5, 0.8), arc.delay[e].at(7.5, 12.8));
    EXPECT_LT(arc.delay[e].at(7.5, 3.2), arc.delay[e].at(150.0, 3.2));
    EXPECT_GT(arc.delay[e].at(7.5, 0.8), 1.0);   // sane magnitudes (ps)
    EXPECT_LT(arc.delay[e].at(150, 12.8), 500.0);
  }
  EXPECT_GT(cell.pin_cap_ff.at("A"), 0.1);
  EXPECT_LT(cell.pin_cap_ff.at("A"), 2.0);
  EXPECT_GT(cell.leakage_uw, 0.0);
  EXPECT_LT(cell.leakage_uw, 0.1);
}

}  // namespace
}  // namespace m3d::liberty

namespace m3d::liberty {
namespace {

TEST(Characterize, MeasuredSetupIsPlausible) {
  const cells::CellSpec dff = cells::make_spec(cells::Func::kDff, 1);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  CharOptions opt;
  opt.measure_setup = true;
  // Shrink the grid: we only need the setup measurement here.
  opt.slews_ps = {20.0};
  opt.dff_slews_ps = {20.0};
  opt.loads_ff = {3.2};
  const LibCell cell =
      characterize_cell(dff, cells::layout_2d(dff, tch), 1.1, opt);
  EXPECT_GE(cell.setup_ps, 0.0);
  EXPECT_LT(cell.setup_ps, 200.0);
}

}  // namespace
}  // namespace m3d::liberty
