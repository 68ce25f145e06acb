#include "cells/func.hpp"

#include <cassert>

namespace m3d::cells {

const char* to_string(Func func) {
  switch (func) {
    case Func::kInv: return "INV";
    case Func::kBuf: return "BUF";
    case Func::kNand2: return "NAND2";
    case Func::kNand3: return "NAND3";
    case Func::kNand4: return "NAND4";
    case Func::kNor2: return "NOR2";
    case Func::kNor3: return "NOR3";
    case Func::kNor4: return "NOR4";
    case Func::kAnd2: return "AND2";
    case Func::kAnd3: return "AND3";
    case Func::kAnd4: return "AND4";
    case Func::kOr2: return "OR2";
    case Func::kOr3: return "OR3";
    case Func::kOr4: return "OR4";
    case Func::kXor2: return "XOR2";
    case Func::kXnor2: return "XNOR2";
    case Func::kMux2: return "MUX2";
    case Func::kAoi21: return "AOI21";
    case Func::kOai21: return "OAI21";
    case Func::kAoi22: return "AOI22";
    case Func::kOai22: return "OAI22";
    case Func::kHa: return "HA";
    case Func::kFa: return "FA";
    case Func::kDff: return "DFF";
  }
  return "?";
}

bool func_from_string(const std::string& name, Func* out) {
  for (Func f : all_comb_funcs()) {
    if (name == to_string(f)) {
      *out = f;
      return true;
    }
  }
  if (name == to_string(Func::kDff)) {
    *out = Func::kDff;
    return true;
  }
  return false;
}

const std::vector<std::string>& input_pins(Func func) {
  static const std::vector<std::string> kA{"A"}, kAB{"A", "B"},
      kABC{"A", "B", "C"}, kABCD{"A", "B", "C", "D"}, kABS{"A", "B", "S"},
      kA12B{"A1", "A2", "B"}, kA12B12{"A1", "A2", "B1", "B2"},
      kABCI{"A", "B", "CI"}, kDCK{"D", "CK"}, kNone;
  switch (func) {
    case Func::kInv:
    case Func::kBuf: return kA;
    case Func::kNand2:
    case Func::kNor2:
    case Func::kAnd2:
    case Func::kOr2:
    case Func::kXor2:
    case Func::kXnor2:
    case Func::kHa: return kAB;
    case Func::kNand3:
    case Func::kNor3:
    case Func::kAnd3:
    case Func::kOr3: return kABC;
    case Func::kNand4:
    case Func::kNor4:
    case Func::kAnd4:
    case Func::kOr4: return kABCD;
    case Func::kMux2: return kABS;
    case Func::kAoi21:
    case Func::kOai21: return kA12B;
    case Func::kAoi22:
    case Func::kOai22: return kA12B12;
    case Func::kFa: return kABCI;
    case Func::kDff: return kDCK;
  }
  return kNone;
}

const std::vector<std::string>& output_pins(Func func) {
  static const std::vector<std::string> kSCo{"S", "CO"}, kQ{"Q"}, kZ{"Z"};
  switch (func) {
    case Func::kHa:
    case Func::kFa: return kSCo;
    case Func::kDff: return kQ;
    default: return kZ;
  }
}

int num_inputs(Func func) { return static_cast<int>(input_pins(func).size()); }

bool is_sequential(Func func) { return func == Func::kDff; }

std::vector<uint64_t> truth_table(Func func) {
  auto make = [&](auto&& f, int nout) {
    const int n = num_inputs(func);
    std::vector<uint64_t> tables(static_cast<size_t>(nout), 0);
    for (uint32_t m = 0; m < (1u << n); ++m) {
      for (int o = 0; o < nout; ++o) {
        if (f(m, o)) tables[static_cast<size_t>(o)] |= (uint64_t{1} << m);
      }
    }
    return tables;
  };
  auto bit = [](uint32_t m, int i) { return ((m >> i) & 1u) != 0; };
  switch (func) {
    case Func::kInv:
      return make([&](uint32_t m, int) { return !bit(m, 0); }, 1);
    case Func::kBuf:
      return make([&](uint32_t m, int) { return bit(m, 0); }, 1);
    case Func::kNand2:
      return make([&](uint32_t m, int) { return !(bit(m, 0) && bit(m, 1)); }, 1);
    case Func::kNand3:
      return make(
          [&](uint32_t m, int) { return !(bit(m, 0) && bit(m, 1) && bit(m, 2)); },
          1);
    case Func::kNand4:
      return make(
          [&](uint32_t m, int) {
            return !(bit(m, 0) && bit(m, 1) && bit(m, 2) && bit(m, 3));
          },
          1);
    case Func::kNor2:
      return make([&](uint32_t m, int) { return !(bit(m, 0) || bit(m, 1)); }, 1);
    case Func::kNor3:
      return make(
          [&](uint32_t m, int) { return !(bit(m, 0) || bit(m, 1) || bit(m, 2)); },
          1);
    case Func::kNor4:
      return make(
          [&](uint32_t m, int) {
            return !(bit(m, 0) || bit(m, 1) || bit(m, 2) || bit(m, 3));
          },
          1);
    case Func::kAnd2:
      return make([&](uint32_t m, int) { return bit(m, 0) && bit(m, 1); }, 1);
    case Func::kAnd3:
      return make(
          [&](uint32_t m, int) { return bit(m, 0) && bit(m, 1) && bit(m, 2); },
          1);
    case Func::kAnd4:
      return make(
          [&](uint32_t m, int) {
            return bit(m, 0) && bit(m, 1) && bit(m, 2) && bit(m, 3);
          },
          1);
    case Func::kOr2:
      return make([&](uint32_t m, int) { return bit(m, 0) || bit(m, 1); }, 1);
    case Func::kOr3:
      return make(
          [&](uint32_t m, int) { return bit(m, 0) || bit(m, 1) || bit(m, 2); },
          1);
    case Func::kOr4:
      return make(
          [&](uint32_t m, int) {
            return bit(m, 0) || bit(m, 1) || bit(m, 2) || bit(m, 3);
          },
          1);
    case Func::kXor2:
      return make([&](uint32_t m, int) { return bit(m, 0) != bit(m, 1); }, 1);
    case Func::kXnor2:
      return make([&](uint32_t m, int) { return bit(m, 0) == bit(m, 1); }, 1);
    case Func::kMux2:
      return make(
          [&](uint32_t m, int) { return bit(m, 2) ? bit(m, 1) : bit(m, 0); }, 1);
    case Func::kAoi21:
      return make(
          [&](uint32_t m, int) { return !((bit(m, 0) && bit(m, 1)) || bit(m, 2)); },
          1);
    case Func::kOai21:
      return make(
          [&](uint32_t m, int) { return !((bit(m, 0) || bit(m, 1)) && bit(m, 2)); },
          1);
    case Func::kAoi22:
      return make(
          [&](uint32_t m, int) {
            return !((bit(m, 0) && bit(m, 1)) || (bit(m, 2) && bit(m, 3)));
          },
          1);
    case Func::kOai22:
      return make(
          [&](uint32_t m, int) {
            return !((bit(m, 0) || bit(m, 1)) && (bit(m, 2) || bit(m, 3)));
          },
          1);
    case Func::kHa:
      return make(
          [&](uint32_t m, int o) {
            return o == 0 ? (bit(m, 0) != bit(m, 1)) : (bit(m, 0) && bit(m, 1));
          },
          2);
    case Func::kFa:
      return make(
          [&](uint32_t m, int o) {
            const int sum = bit(m, 0) + bit(m, 1) + bit(m, 2);
            return o == 0 ? (sum & 1) != 0 : sum >= 2;
          },
          2);
    case Func::kDff:
      // Next-state view: Q follows D (bit 0); CK (bit 1) handled by STA.
      return make([&](uint32_t m, int) { return bit(m, 0); }, 1);
  }
  return {};
}

bool eval(Func func, int out_idx, uint32_t minterm) {
  const auto tables = truth_table(func);
  assert(out_idx >= 0 && out_idx < static_cast<int>(tables.size()));
  return ((tables[static_cast<size_t>(out_idx)] >> minterm) & 1u) != 0;
}

std::vector<Func> all_comb_funcs() {
  return {Func::kInv,   Func::kBuf,   Func::kNand2, Func::kNand3, Func::kNand4,
          Func::kNor2,  Func::kNor3,  Func::kNor4,  Func::kAnd2,  Func::kAnd3,
          Func::kAnd4,  Func::kOr2,   Func::kOr3,   Func::kOr4,   Func::kXor2,
          Func::kXnor2, Func::kMux2,  Func::kAoi21, Func::kOai21, Func::kAoi22,
          Func::kOai22, Func::kHa,    Func::kFa};
}

}  // namespace m3d::cells
