// Shared sparse numeric kernel layer: deterministic CSR assembly and
// ordered sparse matrix-vector products.
//
// Assembly contract: triplets accumulate in a COO buffer (duplicates
// allowed) and `CsrBuilder::build` canonicalizes them — stable sort by
// (row, col), duplicates summed left-to-right in insertion order — so the
// resulting matrix is a pure function of the triplet *sequence*. Parallel
// assemblers that produce per-chunk builders and merge them in chunk order
// (exec::parallel_reduce's contract) therefore build bit-identical
// matrices at any thread count. SpMV accumulates each row left-to-right in
// stored (ascending-column) order: fixed summation order, deterministic to
// the last ULP.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/mem.hpp"

namespace m3d::numeric {

/// Compressed-sparse-row matrix. Columns are ascending within each row and
/// unique (build() sums duplicates). `diag_slot[i]` indexes val at (i, i),
/// or -1 when the diagonal entry is structurally absent.
struct Csr {
  int rows = 0;
  int cols = 0;
  std::vector<int> row_ptr;    // size rows + 1
  std::vector<int> col;        // size nnz, ascending within each row
  obs::vector<double> val;     // size nnz (counted: solver memory shows up
                               // in per-stage profiles, see obs/mem.hpp)
  std::vector<int> diag_slot;  // size rows

  size_t nnz() const { return col.size(); }

  /// y = A x, row-major with a fixed left-to-right accumulation per row.
  /// x must have `cols` elements and y `rows`; x and y must not alias.
  void spmv(const double* x, double* y) const;
  void spmv(const std::vector<double>& x, std::vector<double>& y) const;

  /// Max |a_ij| over all stored entries (0 for an empty matrix; NaN
  /// entries are skipped, as by a `std::max` fold from +0.0) — the scale
  /// that relative pivot/convergence thresholds are measured against.
  double max_abs() const;
};

/// COO triplet accumulator. `add` order is the only state that matters:
/// two builders fed the same triplet sequence build identical matrices.
class CsrBuilder {
 public:
  CsrBuilder(int rows, int cols) : rows_(rows), cols_(cols) {}

  void reserve(size_t n) { trips_.reserve(n); }
  /// Appends one triplet. Out-of-range indices are a caller bug (asserted).
  void add(int row, int col, double v);
  /// Appends every triplet of `other` after this builder's, in order.
  void merge(const CsrBuilder& other);
  size_t size() const { return trips_.size(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Canonicalizes to CSR: stable sort by (row, col) — insertion order
  /// breaks ties — then duplicates sum left-to-right. When `slot_of_add`
  /// is non-null it receives, per add() call index, the val slot that
  /// call's contribution landed in (the stamp program used by repeated
  /// numeric reassembly, e.g. the SPICE Newton loop).
  Csr build(std::vector<int>* slot_of_add = nullptr) const;

 private:
  struct Trip {
    int r, c;
    double v;
  };
  int rows_, cols_;
  std::vector<Trip> trips_;
};

}  // namespace m3d::numeric
