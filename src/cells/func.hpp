// Logical cell functions for the standard-cell library and technology
// mapping. Truth tables are bitmasks over input minterms: bit i of
// truth[output] is the output value when the inputs spell the integer i
// (inputs[0] = LSB).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace m3d::cells {

enum class Func {
  kInv,
  kBuf,
  kNand2,
  kNand3,
  kNand4,
  kNor2,
  kNor3,
  kNor4,
  kAnd2,
  kAnd3,
  kAnd4,
  kOr2,
  kOr3,
  kOr4,
  kXor2,
  kXnor2,
  kMux2,   // inputs A, B, S; output = S ? B : A
  kAoi21,  // !(A1*A2 + B)
  kOai21,  // !((A1+A2) * B)
  kAoi22,  // !(A1*A2 + B1*B2)
  kOai22,  // !((A1+A2)*(B1+B2))
  kHa,     // half adder: S, CO
  kFa,     // full adder: S, CO
  kDff,    // D flip-flop: D, CK -> Q
};

const char* to_string(Func func);
/// Parses the name produced by to_string. Returns false on unknown names.
bool func_from_string(const std::string& name, Func* out);

/// Input pin names in canonical order (LSB first for truth tables). The
/// tables are static, so hot loops can look pins up without allocating.
const std::vector<std::string>& input_pins(Func func);
/// Output pin names (static table, like input_pins).
const std::vector<std::string>& output_pins(Func func);
int num_inputs(Func func);
bool is_sequential(Func func);

/// Truth table masks, one per output. Sequential cells return the
/// next-state function of (D, CK ignored): bit pattern for Q = D.
std::vector<uint64_t> truth_table(Func func);

/// Evaluates output `out_idx` for the input assignment packed in `minterm`.
bool eval(Func func, int out_idx, uint32_t minterm);

/// All combinational functions, in a stable order (excludes kDff).
std::vector<Func> all_comb_funcs();

}  // namespace m3d::cells
